import json

import pytest

from corpus import FIXTURES, grammar_body_tokens, load_grammar, read_fixture
from xtadapt.cli import main
from xtadapt.model import Grammar
from xtadapt.parsing import parse_grammar, print_grammar

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
    assert "XTADAPT_API_KEY" in capsys.readouterr().err


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


def test_check_unreadable_exit_2(tmp_path, capsys):
    code = main(["check", str(tmp_path / "missing.xtext")])
    assert code == 2
