import json
import subprocess
import sys
import urllib.error
from pathlib import Path

import pytest

from corpus import grammar_body_tokens, load_grammar, load_pair
import xtadapt.llm as llm
from xtadapt.llm import (
    _FENCE_RE,
    FOLLOW_UP_TEXT,
    MAX_FOLLOW_UPS,
    PROMPT_1_TEXT,
    PROMPT_2_TEXT,
    BackendError,
    ExtractionFailure,
    HttpBackend,
    MockBackend,
    Outcome,
    extract_grammar_from_reply,
    render_follow_up,
    render_prompt_1,
    render_prompt_2,
    run_adaptation,
    save_transcript,
)
from xtadapt.model import Grammar
from xtadapt.parsing import parse_grammar, print_grammar

MISSION_TERMINALS = frozenset({"Identifier", "UUID", "String0", "Comment"})


@pytest.fixture()
def mission_inputs():
    g1, g1prime = load_pair("mission")
    # Reuse the generated grammar as the evolved input; any parseable grammar
    # works for protocol-level tests.
    return g1, g1prime, g1


def scripted(*replies: str) -> MockBackend:
    return MockBackend(list(replies))


def test_prompt_texts_contain_protocol_sentences():
    rendered_1 = render_prompt_1("G1TEXT", "G1PTEXT")
    assert PROMPT_1_TEXT in rendered_1
    assert "G1TEXT" in rendered_1 and "G1PTEXT" in rendered_1
    rendered_2 = render_prompt_2("G2TEXT")
    assert PROMPT_2_TEXT in rendered_2
    assert "G2TEXT" in rendered_2
    follow_up = render_follow_up(["issue one", "issue two"])
    assert "issue one; issue two" in follow_up
    assert FOLLOW_UP_TEXT.split("{ISSUES}")[0] in follow_up


def test_prompt_1_keeps_placeholder_text_inside_the_grammars():
    """A grammar whose text holds ``{G1_PRIME}`` is quoted as written."""
    g1 = "A: {G1_PRIME} x=ID;"
    assert render_prompt_1(g1, "B: y=ID;") == (
        PROMPT_1_TEXT + "\n\nGenerated grammar:\n" + g1 + "\n\nTarget grammar:\nB: y=ID;"
    )


def test_scripted_success(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    backend = scripted("I have identified the adaptations.", print_grammar(g1prime))
    session = run_adaptation(g1, g1prime, g2, backend, MISSION_TERMINALS, dsl_name="mission")
    assert session.outcome is Outcome.ACCEPTED
    assert session.follow_ups_used == 0
    assert session.extracted_grammar is not None
    assert grammar_body_tokens(session.extracted_grammar) == grammar_body_tokens(g1prime)
    user_turns = [t for t in session.turns if t.role == "user"]
    assert PROMPT_1_TEXT in user_turns[0].text
    assert PROMPT_2_TEXT in user_turns[1].text


def test_follow_up_names_conformance_finding(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    broken = "Mission returns Mission:\n    'Mission' type=[|EString];\n"
    sent = []

    class Recording(MockBackend):
        def complete(self, messages):
            sent.append(messages)
            return super().complete(messages)

    backend = Recording(["Understood.", broken, print_grammar(g1prime)])
    session = run_adaptation(g1, g1prime, g2, backend, MISSION_TERMINALS)
    assert session.outcome is Outcome.ACCEPTED
    assert session.follow_ups_used == 1
    wire = [
        {"role": {"user": "user", "model": "assistant"}[t.role], "content": t.text}
        for t in session.turns
    ]
    assert sent == [wire[:1], wire[:3], wire[:5]]  # each request holds every turn before it
    follow_up = [t for t in session.turns if t.role == "user"][2]
    assert "EMPTY_CROSSREF_TYPE" in follow_up.text
    assert follow_up.text.startswith("The adapted grammar has the following issues:")


def test_exhaustion_after_three_follow_ups(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    backend = scripted("ok", "not a grammar", "still not", "nope", "give up")
    session = run_adaptation(g1, g1prime, g2, backend, MISSION_TERMINALS)
    assert session.outcome is Outcome.EXHAUSTED
    assert session.follow_ups_used == MAX_FOLLOW_UPS == 3
    user_turns = [t for t in session.turns if t.role == "user"]
    assert len(user_turns) == 2 + 3


def test_turn_budget_never_exceeded(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    backend = scripted(*["junk"] * 10)
    session = run_adaptation(g1, g1prime, g2, backend, MISSION_TERMINALS)
    user_turns = [t for t in session.turns if t.role == "user"]
    assert len(user_turns) <= 5


def test_sessions_are_isolated(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    reply = print_grammar(g1prime)
    first = run_adaptation(g1, g1prime, g2, scripted("a", reply), MISSION_TERMINALS, dsl_name="one")
    second = run_adaptation(g1, g1prime, g2, scripted("a", reply), MISSION_TERMINALS, dsl_name="two")
    assert first.turns == [t for t in first.turns]
    assert [t.text for t in first.turns] == [t.text for t in second.turns]
    assert first.dsl_name != second.dsl_name
    assert first.outcome is second.outcome is Outcome.ACCEPTED


def test_mock_runs_are_reproducible(mission_inputs, tmp_path):
    g1, g1prime, g2 = mission_inputs
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(["analysis", print_grammar(g1prime)]), encoding="utf-8")
    sessions = [
        run_adaptation(
            g1, g1prime, g2, MockBackend.from_replay_file(str(replay)), MISSION_TERMINALS
        )
        for _ in range(2)
    ]
    assert sessions[0].to_json_dict() == sessions[1].to_json_dict()


def test_backend_error_preserves_transcript(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    backend = scripted("only one reply")
    session = run_adaptation(g1, g1prime, g2, backend, MISSION_TERMINALS)
    assert session.outcome is Outcome.ERROR
    assert session.error is not None
    assert len(session.turns) >= 2  # first prompt and its reply survive


def test_truncation_risk_flag(mission_inputs):
    g1, g1prime, g2 = mission_inputs
    backend = scripted("a", print_grammar(g1prime))
    session = run_adaptation(
        g1, g1prime, g2, backend, MISSION_TERMINALS, token_budget=10
    )
    assert session.truncation_risk is True
    assert session.outcome is Outcome.ACCEPTED


def test_transcript_json_shape(mission_inputs, tmp_path):
    g1, g1prime, g2 = mission_inputs
    backend = scripted("a", print_grammar(g1prime))
    session = run_adaptation(g1, g1prime, g2, backend, MISSION_TERMINALS, dsl_name="mission")
    path = tmp_path / "transcript.json"
    save_transcript(session, str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["dsl"] == "mission"
    assert doc["outcome"] == "ACCEPTED"
    assert doc["followUpsUsed"] == 0
    assert all(set(t) == {"role", "text"} for t in doc["turns"])
    assert [t["role"] for t in doc["turns"]] == ["user", "model", "user", "model"]


# -- reply extraction ---------------------------------------------------------


def test_extract_from_fenced_reply():
    target = load_grammar("mission_target.xtext")
    reply = f"Here is the adapted grammar:\n```\n{print_grammar(target)}```\nDone."
    extracted = extract_grammar_from_reply(reply)
    assert isinstance(extracted, Grammar)
    assert grammar_body_tokens(extracted) == grammar_body_tokens(target)


def test_extract_from_bare_grammar_reply():
    target = load_grammar("mission_target.xtext")
    extracted = extract_grammar_from_reply(print_grammar(target))
    assert isinstance(extracted, Grammar)
    assert grammar_body_tokens(extracted) == grammar_body_tokens(target)


def test_extract_prefers_largest_fence():
    reply = (
        "Small sketch:\n```\nA: 'a';\n```\nFull version:\n"
        "```\nA: 'a';\n\nB: 'b';\n\nC: 'c';\n```"
    )
    extracted = extract_grammar_from_reply(reply)
    assert isinstance(extracted, Grammar)
    assert len(extracted.rules) == 3


def test_extract_refusal_reports_no_grammar():
    extracted = extract_grammar_from_reply("I cannot do that.")
    assert isinstance(extracted, ExtractionFailure)
    assert extracted.reason == "NO_GRAMMAR_FOUND"


def test_extract_reports_parse_diagnostics():
    extracted = extract_grammar_from_reply("```\nA: (((;\n```")
    assert isinstance(extracted, ExtractionFailure)
    assert extracted.issues()


def test_extract_reports_the_fence_not_its_closing_backticks():
    """A fenced grammar that lacks a ';' fails in the fence; only the fence's
    diagnostics are reported, not the closing fence that the region from its
    ``grammar`` line runs into."""
    grammar = "grammar org.example.M\n\nA: 'a'\n\nB: 'b';"
    reply = f"Here is the adapted grammar.\n\n```xtext\n{grammar}\n```\n"
    extracted = extract_grammar_from_reply(reply)
    assert isinstance(extracted, ExtractionFailure)
    assert extracted.issues() == ["parse error at 5:2: unexpected token ':' in rule body"]


def test_a_failing_fence_is_parsed_once(monkeypatch):
    """The region from the fence's ``grammar`` line to the end of the reply
    runs over the closing backticks, which no rule accepts, so it is not
    parsed again."""
    parsed = []

    def counted(text):
        parsed.append(text)
        return parse_grammar(text)

    monkeypatch.setattr(llm, "parse_grammar", counted)
    text = print_grammar(load_grammar("mission_target.xtext"))
    at = text.index(";\n")  # the first rule's terminator
    reply = f"Here is the adapted grammar.\n\n```xtext\n{text[:at] + text[at + 1:]}```\n"
    extracted = extract_grammar_from_reply(reply)
    assert isinstance(extracted, ExtractionFailure)
    assert extracted.diagnostics
    assert len(parsed) == 1


@pytest.mark.parametrize(
    "reply",
    [
        "```\ngrammar org.example.M\n\nA: 'a'; /* open\n```\n*/ B: 'b';",
        "```\ngrammar org.example.M\n\nA: 'a' // no line break```\n;\nB: 'b';",
        "```\ngrammar org.example.M\n\nA: 'a';\nterminal T: 'b'\n```\n;\nB: 'b';",
    ],
    ids=["open-comment", "line-comment", "terminal-body"],
)
def test_the_grammar_line_region_is_tried_where_it_can_parse(reply):
    """The closing backticks can fall into a comment or a terminal's body, so
    text after them can complete a fence that fails."""
    assert isinstance(parse_grammar(_FENCE_RE.search(reply)[1]), list)
    extracted = extract_grammar_from_reply(reply)
    assert isinstance(extracted, Grammar)
    assert [r.name for r in extracted.rules] == ["A", "B"]


# -- http backend -------------------------------------------------------------


def test_http_backend_requires_credential(monkeypatch):
    monkeypatch.delenv("XTADAPT_API_KEY", raising=False)
    backend = HttpBackend("http://localhost:9/v1/chat", credential_env="XTADAPT_API_KEY")
    with pytest.raises(BackendError) as err:
        backend.complete([{"role": "user", "content": "hi"}])
    assert "XTADAPT_API_KEY" in str(err.value)


def test_http_backend_wire_shape(monkeypatch):
    captured = {}

    class FakeResponse:
        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

        def read(self):
            return json.dumps(
                {"choices": [{"message": {"content": "fine"}}]}
            ).encode("utf-8")

    def fake_urlopen(request, timeout):
        captured["url"] = request.full_url
        captured["payload"] = json.loads(request.data.decode("utf-8"))
        captured["auth"] = request.get_header("Authorization")
        return FakeResponse()

    monkeypatch.setenv("XTADAPT_API_KEY", "sekrit")
    monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
    backend = HttpBackend("http://example.invalid/v1/chat", model="m1")
    reply = backend.complete([{"role": "user", "content": "hello"}])
    assert reply == "fine"
    assert captured["url"] == "http://example.invalid/v1/chat"
    assert captured["payload"]["model"] == "m1"
    assert captured["payload"]["temperature"] == 0.0
    assert captured["payload"]["messages"] == [{"role": "user", "content": "hello"}]
    assert captured["auth"] == "Bearer sekrit"


def test_http_backend_deep_response_is_a_backend_error(monkeypatch):
    class DeepResponse:
        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

        def read(self):
            return ("[" * 200_000 + "]" * 200_000).encode("utf-8")

    monkeypatch.setenv("XTADAPT_API_KEY", "sekrit")
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: DeepResponse())
    backend = HttpBackend("http://example.invalid/v1/chat")
    with pytest.raises(BackendError, match="^backend request failed: "):
        backend.complete([{"role": "user", "content": "hello"}])


def test_http_backend_null_content_ends_the_session_in_error(monkeypatch, mission_inputs):
    # Chat APIs send ``"content": null`` when the model calls a tool.
    class NullContentResponse:
        def __enter__(self):
            return self

        def __exit__(self, *args):
            return False

        def read(self):
            return json.dumps({"choices": [{"message": {"content": None}}]}).encode("utf-8")

    monkeypatch.setenv("XTADAPT_API_KEY", "sekrit")
    monkeypatch.setattr("urllib.request.urlopen", lambda request, timeout: NullContentResponse())
    backend = HttpBackend("http://example.invalid/v1/chat")
    with pytest.raises(BackendError, match="^unexpected backend response shape: "):
        backend.complete([{"role": "user", "content": "hello"}])
    session = run_adaptation(*mission_inputs, backend, MISSION_TERMINALS)
    assert session.outcome is Outcome.ERROR


@pytest.mark.parametrize(
    "error",
    [
        urllib.error.URLError("refused"),
        urllib.error.HTTPError("http://example.invalid/v1/chat", 503, "busy", {}, None),
        TimeoutError(),
    ],
    ids=["url-error", "http-error", "timeout"],
)
def test_http_backend_transport_errors_are_backend_errors(monkeypatch, error):
    def failing_urlopen(request, timeout):
        raise error

    monkeypatch.setenv("XTADAPT_API_KEY", "sekrit")
    monkeypatch.setattr("urllib.request.urlopen", failing_urlopen)
    backend = HttpBackend("http://example.invalid/v1/chat")
    with pytest.raises(BackendError, match="^backend request failed: "):
        backend.complete([{"role": "user", "content": "hello"}])


def test_importing_the_package_leaves_the_http_stack_unloaded():
    # A fresh interpreter: this process has loaded the HTTP stack already.
    # urllib.parse is not checked, because pathlib loads it.
    src = Path(llm.__file__).parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import xtadapt, xtadapt.cli; "
        "print(' '.join(m for m in ('socket', 'ssl', 'http.client', 'urllib.request', "
        "'email.message') if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == []
