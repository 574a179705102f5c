import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import FIXTURES, grammar_body_tokens, load_grammar, read_fixture
from xtadapt.cli import main
from xtadapt.extract import extract_config
from xtadapt.model import Grammar
from xtadapt.parsing import parse_grammar, print_grammar
from xtadapt.transform import config_to_json

MISSION_G1 = str(FIXTURES / "mission_generated.xtext")
MISSION_G1P = str(FIXTURES / "mission_target.xtext")


@pytest.fixture()
def terminals_file(tmp_path):
    path = tmp_path / "terminals.txt"
    path.write_text("Identifier\nUUID\nString0\nComment\n", encoding="utf-8")
    return str(path)


def _tokens(path) -> list[str]:
    grammar = parse_grammar(path.read_text(encoding="utf-8"))
    assert isinstance(grammar, Grammar)
    return grammar_body_tokens(grammar)


# -- extract ------------------------------------------------------------------


def test_extract_writes_config(tmp_path, capsys):
    out = tmp_path / "config.json"
    code = main(["extract", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--out-config", str(out)])
    assert code == 0
    assert "fallbackCount 0" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["entries"]


def test_extract_identity_message(tmp_path, capsys):
    out = tmp_path / "config.json"
    code = main(["extract", "--g1", MISSION_G1, "--g1-prime", MISSION_G1, "--out-config", str(out)])
    assert code == 0
    assert "0 operations" in capsys.readouterr().out


def test_extract_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.xtext"
    bad.write_text("Mission returns Mission 'no colon';", encoding="utf-8")
    code = main(["extract", "--g1", str(bad), "--g1-prime", MISSION_G1P, "--out-config", str(tmp_path / "c.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "parse failed" in err
    assert ":" in err  # diagnostics carry line:col spans


def test_extract_internal_failure_exit_2(tmp_path, capsys, monkeypatch):
    import xtadapt.cli
    from xtadapt.extract import ExtractionError

    def fail(g1, g1prime):
        raise ExtractionError("extracted config does not replay rule 'Mission'")

    monkeypatch.setattr(xtadapt.cli, "extract_config", fail)
    code = main(["extract", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--out-config", str(tmp_path / "c.json")])
    assert code == 2
    assert capsys.readouterr().err == "extracted config does not replay rule 'Mission'\n"


_DUPLICATE_A = "A: 'a' x=ID; A: 'b' y=ID;\n"


@pytest.mark.parametrize(
    "g1,g1prime,message",
    [
        (_DUPLICATE_A, "A: x=ID;\n",
         "config application broke grammar invariants: duplicate rule name 'A'"),
        ("A: x=ID;\n", _DUPLICATE_A, "extracted config does not replay rule 'A'"),
        # G1 is checked up front, also when G1' removes the duplicated rule.
        (_DUPLICATE_A, "B: x=ID;\n",
         "config application broke grammar invariants: duplicate rule name 'A'"),
    ],
    ids=["g1", "g1prime", "g1-removed"],
)
def test_extract_duplicate_rule_names_exit_2(tmp_path, capsys, g1, g1prime, message):
    paths = []
    for name, text in (("g1", g1), ("g1prime", g1prime)):
        path = tmp_path / f"{name}.xtext"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    out = tmp_path / "c.json"
    assert main(["extract", "--g1", paths[0], "--g1-prime", paths[1], "--out-config", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


# -- apply --------------------------------------------------------------------


def test_extract_then_apply_round_trip(tmp_path):
    config = tmp_path / "config.json"
    assert main(["extract", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--out-config", str(config)]) == 0
    out = tmp_path / "adapted.xtext"
    assert main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(out)]) == 0
    assert _tokens(out) == grammar_body_tokens(load_grammar("mission_target.xtext"))


def test_apply_identity_reprints_input(tmp_path):
    config = tmp_path / "config.json"
    config.write_text('{"provenance": "", "entries": []}', encoding="utf-8")
    out = tmp_path / "out.xtext"
    assert main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == print_grammar(load_grammar("mission_generated.xtext"))


def test_apply_warns_on_absent_rule(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "provenance": "",
                "entries": [
                    {
                        "kind": "REMOVE_KEYWORD",
                        "scope": {"kind": "RULE", "rule": "Departed"},
                        "params": {"text": "x"},
                    }
                ],
            }
        ),
        encoding="utf-8",
    )
    out = tmp_path / "out.xtext"
    code = main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(out)])
    assert code == 0
    assert "NO_MATCH" in capsys.readouterr().err


def test_apply_removes_the_star_keyword(tmp_path):
    """A ``"*"`` text is the literal ``'*'`` keyword, not a wildcard."""
    g2 = tmp_path / "g2.xtext"
    g2.write_text("Mul: 'mul' '*' x=ID;\n\nDiv: 'div' '*' y=ID;\n", encoding="utf-8")
    config = tmp_path / "config.json"
    entry = {"kind": "REMOVE_KEYWORD", "scope": {"kind": "GRAMMAR"}, "params": {"text": "*"}}
    config.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    out = tmp_path / "out.xtext"
    assert main(["apply", "--config", str(config), "--g2", str(g2), "--out", str(out)]) == 0
    assert parse_grammar(out.read_text(encoding="utf-8")) == parse_grammar("Mul: 'mul' x=ID;\n\nDiv: 'div' y=ID;")


def test_apply_invalid_config_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"entries": [{"kind": "NOT_A_KIND", "scope": {"kind": "RULE"}}]}', encoding="utf-8")
    code = main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(tmp_path / "o.xtext")])
    assert code == 2
    assert "NOT_A_KIND" in capsys.readouterr().err
    config.write_text('{"entries": [{"kind": "REMOVE_KEYWORD", "scope": {"kind": "RULE"}, "params": []}]}', encoding="utf-8")
    code = main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(tmp_path / "o.xtext")])
    assert code == 2
    err = capsys.readouterr().err
    assert "'params' must be objects" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "entry,fragment",
    [
        ({"kind": "ADD_TERMINATOR", "scope": {"kind": "ATTRIBUTE", "rule": "Mission", "feature": "uuid"}},
         "ADD_TERMINATOR needs a string 'text' param"),
        ({"kind": "REPLACE_RULE", "scope": {"kind": "RULE", "rule": "Mission"}, "params": {"returns": "M"}},
         "REPLACE_RULE needs a string 'body' param or 'remove': true"),
        ({"kind": "REPLACE_RULE", "scope": {"kind": "RULE", "rule": "Mission"},
          "params": {"body": "'m'", "returns": [1]}},
         "REPLACE_RULE 'returns' must be a string"),
        ({"kind": "REMOVE_OPTIONALITY", "scope": {"kind": "ATTRIBUTE", "rule": "Mission"}},
         "an ATTRIBUTE scope needs a 'feature'"),
    ],
)
def test_apply_config_missing_params_exit_2(tmp_path, capsys, entry, fragment):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    out = tmp_path / "o.xtext"
    code = main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"entry 0: {fragment}\n"
    assert not out.exists()


#: JSON the decoder rejects although it is well formed: nesting past the
#: decoder's recursion limit on every supported interpreter (200,000 levels,
#: as CPython's own json tests use), and an integer too long to convert.
_DEEP_JSON = "[" * 200_000 + "]" * 200_000
_HUGE_NUMBER_JSON = json.dumps({"entries": [
    {"kind": "REMOVE_KEYWORD", "scope": {"kind": "GRAMMAR"}, "params": {"text": "N"}}
]}).replace('"N"', "7" * 5000)


@pytest.mark.parametrize("text", [_DEEP_JSON, _HUGE_NUMBER_JSON], ids=["deep", "huge-number"])
def test_apply_undecodable_config_exit_2(tmp_path, capsys, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    out = tmp_path / "o.xtext"
    assert main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid config JSON: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def _apply_to(tmp_path, grammar_text, entry):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"entries": [entry]}), encoding="utf-8")
    g2 = tmp_path / "g2.xtext"
    g2.write_text(grammar_text, encoding="utf-8")
    out = tmp_path / "o.xtext"
    return main(["apply", "--config", str(config), "--g2", str(g2), "--out", str(out)]), out


def test_apply_rejects_a_called_rule_that_would_print_as_two(tmp_path, capsys):
    entry = {"kind": "CHANGE_CALLED_RULE", "scope": {"kind": "RULE", "rule": "A"},
             "params": {"from": "ID", "to": "x y"}}
    code, out = _apply_to(tmp_path, "A: 'a' v=ID;\n", entry)
    assert code == 2
    assert capsys.readouterr().err == "entry 0: CHANGE_CALLED_RULE 'to' 'x y' cannot be printed\n"
    assert not out.exists()


def test_apply_prints_a_renamed_keyword_in_the_other_quote(tmp_path):
    entry = {"kind": "RENAME_KEYWORD", "scope": {"kind": "RULE", "rule": "A"},
             "params": {"from": "x", "to": "a'b"}}
    code, out = _apply_to(tmp_path, "A: 'x' v=ID;\n", entry)
    assert code == 0
    text = out.read_text(encoding="utf-8")
    assert "\"a'b\"" in text
    adapted = parse_grammar(text)
    assert isinstance(adapted, Grammar)
    assert adapted.rules[0].body.children[0].text == "a'b"


#: One command per loader, each reading the undecodable file ``BAD``.
_NON_UTF8_READS = {
    "grammar": ["check", "BAD"],
    "terminals": ["check", MISSION_G1, "--terminals", "BAD"],
    "config": ["apply", "--config", "BAD", "--g2", MISSION_G1, "--out", "OUT"],
    "replay": ["adapt", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--g2", MISSION_G1,
               "--backend", "mock:BAD", "--out", "OUT"],
}


@pytest.mark.parametrize("loader", sorted(_NON_UTF8_READS))
def test_non_utf8_input_exit_2(tmp_path, capsys, loader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"grammar \xff\n")
    argv = [
        a.replace("BAD", str(bad)).replace("OUT", str(tmp_path / "out"))
        for a in _NON_UTF8_READS[loader]
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    assert len(err.splitlines()) == 1


# -- adapt --------------------------------------------------------------------


def _write_replay(tmp_path, replies) -> str:
    path = tmp_path / "replay.json"
    path.write_text(json.dumps(replies), encoding="utf-8")
    return str(path)


def test_adapt_scripted_success(tmp_path, terminals_file, capsys):
    target_text = read_fixture("mission_target.xtext")
    replay = _write_replay(tmp_path, ["analysis ack", target_text])
    out_dir = tmp_path / "run"
    code = main(
        [
            "adapt",
            "--g1", MISSION_G1,
            "--g1-prime", MISSION_G1P,
            "--g2", MISSION_G1,
            "--target", MISSION_G1P,
            "--backend", f"mock:{replay}",
            "--terminals", terminals_file,
            "--out", str(out_dir),
        ]
    )
    assert code == 0
    assert (out_dir / "g2prime.xtext").exists()
    assert (out_dir / "transcript.json").exists()
    assert (out_dir / "report.json").exists()
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    assert report["rac"] == 1.0
    assert "ACCEPTED" in capsys.readouterr().out


def test_adapt_undecodable_replay_file_exit_2(tmp_path, capsys):
    replay = tmp_path / "replay.json"
    replay.write_text(_DEEP_JSON, encoding="utf-8")
    out = tmp_path / "out"
    code = main(["adapt", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--g2", MISSION_G1,
                 "--backend", f"mock:{replay}", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"cannot load replay file {replay}: ")
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_adapt_exhausted_exit_3(tmp_path, terminals_file):
    replay = _write_replay(tmp_path, ["ok", "bad", "bad", "bad", "bad"])
    out_dir = tmp_path / "run"
    code = main(
        [
            "adapt",
            "--g1", MISSION_G1,
            "--g1-prime", MISSION_G1P,
            "--g2", MISSION_G1,
            "--backend", f"mock:{replay}",
            "--terminals", terminals_file,
            "--out", str(out_dir),
        ]
    )
    assert code == 3
    transcript = json.loads((out_dir / "transcript.json").read_text(encoding="utf-8"))
    assert transcript["outcome"] == "EXHAUSTED"
    user_turns = [t for t in transcript["turns"] if t["role"] == "user"]
    assert len(user_turns) == 5


def test_adapt_missing_credential_exit_4(tmp_path, terminals_file, capsys, monkeypatch):
    monkeypatch.delenv("XTADAPT_API_KEY", raising=False)
    code = main(
        [
            "adapt",
            "--g1", MISSION_G1,
            "--g1-prime", MISSION_G1P,
            "--g2", MISSION_G1,
            "--backend", "http:http://unused.invalid/v1/chat",
            "--terminals", terminals_file,
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 4
    assert capsys.readouterr().err == (
        "backend error: credential environment variable XTADAPT_API_KEY is not set\n"
    )
    transcript = json.loads((tmp_path / "run" / "transcript.json").read_text(encoding="utf-8"))
    assert transcript["outcome"] == "ERROR"


def test_adapt_endpoint_without_a_scheme_exit_4(tmp_path, terminals_file, capsys, monkeypatch):
    # ``http://host`` splits at its first colon into the endpoint ``//host``,
    # which urllib refuses before it opens any connection.
    def no_urlopen(request, timeout):
        raise AssertionError("no request may be sent")

    monkeypatch.setenv("XTADAPT_API_KEY", "dummy")
    monkeypatch.setattr("urllib.request.urlopen", no_urlopen)
    code = main(
        [
            "adapt",
            "--g1", MISSION_G1,
            "--g1-prime", MISSION_G1P,
            "--g2", MISSION_G1,
            "--backend", "http://example.invalid/v1",
            "--terminals", terminals_file,
            "--out", str(tmp_path / "run"),
        ]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("backend error: backend request failed: ")
    assert err.count("\n") == 1
    transcript = json.loads((tmp_path / "run" / "transcript.json").read_text(encoding="utf-8"))
    assert transcript["outcome"] == "ERROR"


def test_adapt_outputs_reproducible(tmp_path, terminals_file):
    target_text = read_fixture("mission_target.xtext")
    replay = _write_replay(tmp_path, ["a", target_text])
    runs = []
    for sub in ("one", "two"):
        out_dir = tmp_path / sub
        code = main(
            [
                "adapt",
                "--g1", MISSION_G1,
                "--g1-prime", MISSION_G1P,
                "--g2", MISSION_G1,
                "--backend", f"mock:{replay}",
                "--terminals", terminals_file,
                "--out", str(out_dir),
            ]
        )
        assert code == 0
        runs.append(
            (
                (out_dir / "g2prime.xtext").read_bytes(),
                (out_dir / "transcript.json").read_bytes(),
            )
        )
    assert runs[0] == runs[1]


# -- evaluate -------------------------------------------------------------------


def test_evaluate_candidate_equals_target(tmp_path, terminals_file, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "evaluate",
            "--g2", MISSION_G1,
            "--candidate", MISSION_G1P,
            "--target", MISSION_G1P,
            "--terminals", terminals_file,
            "--out", str(out),
        ]
    )
    assert code == 0
    table = capsys.readouterr().out
    assert "100%" in table
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["rac"] == 1.0
    assert doc["conformance"] == []


def test_evaluate_candidate_equals_g2_zero_rac(capsys, terminals_file):
    code = main(
        [
            "evaluate",
            "--g2", MISSION_G1,
            "--candidate", MISSION_G1,
            "--target", MISSION_G1P,
            "--terminals", terminals_file,
        ]
    )
    assert code == 0
    assert "0.00%" in capsys.readouterr().out


def test_evaluate_parse_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.xtext"
    bad.write_text("broken (", encoding="utf-8")
    code = main(["evaluate", "--g2", str(bad), "--candidate", MISSION_G1, "--target", MISSION_G1P])
    assert code == 2


# -- check ----------------------------------------------------------------------


def test_check_pass(terminals_file, capsys):
    code = main(["check", MISSION_G1P, "--terminals", terminals_file])
    assert code == 0
    assert capsys.readouterr().out.strip() == "PASS"


def test_check_findings_exit_1(capsys):
    code = main(["check", str(FIXTURES / "xgenerictype_generated.xtext")])
    assert code == 1
    out = capsys.readouterr().out
    assert out.count("EMPTY_CROSSREF_TYPE") == 1


def test_check_reads_a_numeral_as_a_name(tmp_path, capsys):
    """``½`` is a word character, so it lexes as a name and the call to it is unresolved."""
    grammar = tmp_path / "half.xtext"
    grammar.write_text("A: \u00bd;\n", encoding="utf-8")
    assert main(["check", str(grammar)]) == 1
    assert "call to undefined rule or terminal '\u00bd'" in capsys.readouterr().out


def test_check_unreadable_exit_2(tmp_path, capsys):
    code = main(["check", str(tmp_path / "missing.xtext")])
    assert code == 2


# -- unwritable output paths ------------------------------------------------------


def _assert_cannot_write(capsys, code: int, path) -> None:
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"cannot write {path}: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_extract_out_config_in_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "config.json"
    code = main(["extract", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--out-config", str(out)])
    _assert_cannot_write(capsys, code, out)


def test_apply_out_naming_a_directory_exit_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text('{"provenance": "", "entries": []}', encoding="utf-8")
    code = main(["apply", "--config", str(config), "--g2", MISSION_G1, "--out", str(tmp_path)])
    _assert_cannot_write(capsys, code, tmp_path)


def test_evaluate_out_in_missing_directory_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    code = main(["evaluate", "--g2", MISSION_G1, "--candidate", MISSION_G1P,
                 "--target", MISSION_G1P, "--out", str(out)])
    _assert_cannot_write(capsys, code, out)


def test_adapt_out_naming_a_file_exit_2_before_the_session(tmp_path, capsys, monkeypatch):
    import xtadapt.cli

    def no_session(*args, **kwargs):
        raise AssertionError("the session ran before the output directory was made")

    monkeypatch.setattr(xtadapt.cli, "run_adaptation", no_session)
    replay = _write_replay(tmp_path, ["analysis ack", read_fixture("mission_target.xtext")])
    out = tmp_path / "taken"
    out.write_text("", encoding="utf-8")
    code = main(["adapt", "--g1", MISSION_G1, "--g1-prime", MISSION_G1P, "--g2", MISSION_G1,
                 "--backend", f"mock:{replay}", "--out", str(out)])
    _assert_cannot_write(capsys, code, out)


# -- fail-closed property ----------------------------------------------------

_PAIRS = [(f"{name}_generated.xtext", f"{name}_target.xtext") for name in ("mission", "port", "label")]
#: Tokens that a mutation puts in place of a fixture token.
_TRICKY = ["(", ")", "|", "=", "+=", "?=", "'", '"', "{", "}", "*", "+", "?", "=>", ";", ":",
           "[", "]", "returns", "enum", "terminal", "grammar", "\\", "\x00", "\u00e9"]
#: JSON that every decode site must turn into an input error.
_JSON_BOMBS = [_DEEP_JSON, _HUGE_NUMBER_JSON, '["a", ' + "7" * 5000 + "]", '["a", ' + _DEEP_JSON + "]"]


@st.composite
def _variant(draw, text: str) -> bytes:
    """``text`` as an input file: intact, raw bytes, non-UTF-8, truncated
    or with one to three tokens deleted, doubled or replaced."""
    # Half the files stay intact, so that the later stages see drawn input too.
    kind = draw(st.sampled_from(["intact"] * 5 + ["raw", "non-utf8", "truncated", "mutated", "mutated"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    if kind == "non-utf8":
        at = draw(st.integers(0, len(text)))
        return text[:at].encode() + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + text[at:].encode()
    if kind == "truncated":
        return text[: draw(st.integers(0, len(text)))].encode()
    if kind == "mutated":
        tokens = re.findall(r"\w+|\s+|[^\w\s]", text)
        for _ in range(draw(st.integers(1, 3))):
            i = draw(st.integers(0, len(tokens) - 1))
            tokens[i] = draw(st.sampled_from(["", tokens[i] * 2] + _TRICKY))
        return "".join(tokens).encode()
    return text.encode()


def _json_input(text: str):
    """A JSON input file: a ``_variant`` of ``text``, or a JSON bomb."""
    return _variant(text) | st.sampled_from(_JSON_BOMBS).map(str.encode)


@st.composite
def _invocation(draw) -> tuple[list[str], dict[str, bytes]]:
    """A subcommand's argv, with paths under ``TMP/``, and the content of
    each input file there."""
    generated, target = (read_fixture(name) for name in draw(st.sampled_from(_PAIRS)))
    command = draw(st.sampled_from(["extract", "apply", "evaluate", "check", "adapt"]))
    files: dict[str, bytes] = {}

    def slot(name: str, content) -> str:
        files[name] = draw(content)
        return f"TMP/{name}"

    def grammar(text: str) -> str:
        return slot(f"g{len(files)}.xtext", _variant(text))

    def terminals() -> list[str]:
        return ["--terminals", slot("terminals.txt", _variant("Identifier\nUUID\n"))]

    if command == "extract":
        argv = ["--g1", grammar(generated), "--g1-prime", grammar(target), "--out-config", "TMP/out.json"]
    elif command == "apply":
        g1, g1prime = (parse_grammar(text) for text in (generated, target))
        config = config_to_json(extract_config(g1, g1prime).config)
        argv = ["--config", slot("config.json", _json_input(config)), "--g2", grammar(generated),
                "--out", "TMP/out.xtext"]
    elif command == "evaluate":
        argv = ["--g2", grammar(generated), "--candidate", grammar(target), "--target", grammar(target)]
        argv += terminals() if draw(st.booleans()) else []
    elif command == "check":
        argv = [grammar(target)] + (terminals() if draw(st.booleans()) else [])
    else:
        # An analysis reply and the four replies a session can ask for.
        replies = ["ack"] + [draw(_variant(target)).decode(errors="replace") for _ in range(4)]
        replay = slot("replay.json", _json_input(json.dumps(replies)))
        argv = ["--g1", grammar(generated), "--g1-prime", grammar(target), "--g2", grammar(generated),
                "--backend", f"mock:{replay}", "--out", "TMP/run"]
        argv += ["--target", grammar(target)] if draw(st.booleans()) else []
    return [command] + argv, files


@settings(max_examples=300, deadline=None)
@given(invocation=_invocation())
def test_drawn_inputs_fail_closed(invocation):
    """On any drawn input file a subcommand exits with a contract code, no
    exception escapes ``main``, stderr holds no traceback, and an input
    error says what it is on its first line."""
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in files.items():
            (Path(tmp) / name).write_bytes(content)
        argv = [arg.replace("TMP/", f"{tmp}/") for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().splitlines()[0], argv
