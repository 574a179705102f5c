"""Re-runnable mutation check: each mutant in ``MUTANTS`` must be killed.

A row names a file under ``src/xtadapt``, an exact piece of its text, what
to put in its place and the test ids that must then fail.  For each row the
script copies ``src/``, ``tests/``, ``pyproject.toml`` and ``README.md`` to a
temporary directory, makes the one substitution there and runs all the
named tests with ``python -m pytest``; the checkout itself is never
modified.  A mutant counts as killed only when every named test fails, so
each test a row names must kill it on its own.  The named tests must also
pass on an unmodified copy, so a row cannot count a test that fails anyway
as a kill; that run goes on beside the mutants' runs, one at a time.  Every
run skips hypothesis's shrink phase (see ``tests/conftest.py``).

Run it from anywhere, with the test requirements installed::

    python tests/mutation_check.py

It exits 0 when every mutant is killed, and 1 when one survives (it names
each named test that passed), when a row's old text is not found exactly
once in its file, or when the tests do not pass on the unmodified copy.
The file name does not start with ``test_``, so pytest does not collect it.
When a change claims a mutation check, add its row here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/xtadapt
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "apply_config applies the phases in reverse order",
        "transform.py",
        "key=lambda op: CATALOG[op.kind].phase)",
        "key=lambda op: -CATALOG[op.kind].phase)",
        ("tests/test_extract.py::test_round_trip_needs_phase_order",),
    ),
    Mutant(
        "the signature scan counts only ? marks, not * or +",
        "evaluate.py",
        'elif token == "?" or token == "*" or token == "+":',
        'elif token == "?":',
        (
            "tests/test_evaluate.py::test_signature_scan_matches_the_reference_on_fixture_rule_pairs",
            "tests/test_evaluate.py::test_signature_scan_matches_the_reference_on_drawn_rules",
        ),
    ),
    Mutant(
        "the signature scan counts each keyword once, not each occurrence",
        "evaluate.py",
        "(words if _is_word(token[1:-1]) else punct)[token] += 1",
        "(words if _is_word(token[1:-1]) else punct)[token] = 1",
        ("tests/test_evaluate.py::test_signature_scan_matches_the_reference_on_drawn_rules",),
    ),
    Mutant(
        "the body root qualifies as a region despite a foreign keyword",
        "transform.py",
        "                    if not path:\n                        words.append(text)\n",
        "",
        ("tests/test_rule_index.py::test_fixture_rules_index_like_the_reference",),
    ),
    Mutant(
        "extract reads terminators at the first anchor's slots only",
        "extract.py",
        "_terminator_slots(rule.body, index.anchors[feature], feature)",
        "_terminator_slots(rule.body, index.anchors[feature][:1], feature)",
        ("tests/test_extract.py::test_drawn_terminators_are_read_where_they_are_added",),
    ),
    Mutant(
        "extract pairs no keywords that only one side has as a rule-wide rename",
        "extract.py",
        "    for old, new in zip(src_only, _keywords_missing(dst_index, src_index)):\n"
        "        add(OpKind.RENAME_KEYWORD, rule_scope(name), {\"from\": old, \"to\": new})\n",
        "",
        ("tests/test_extract.py::test_a_renamed_keyword_replays_on_an_evolved_rule[across-attributes]",),
    ),
    Mutant(
        "extract renames no keyword terminal of an attribute",
        "extract.py",
        "            if kinds == (Keyword, Keyword) and s_term.text != d_term.text:\n"
        "                add(OpKind.RENAME_KEYWORD, scope, {\"from\": s_term.text, \"to\": d_term.text})\n",
        "",
        ("tests/test_extract.py::test_a_renamed_keyword_replays_on_an_evolved_rule[keyword-terminal]",),
    ),
    Mutant(
        "extract counts the target's repetition separators as keywords only it has",
        "extract.py",
        "_keywords_missing(dst_index, src_index)",
        "sorted(set(dst_index.keywords) - set(src_index.keywords), key=dst_index.keywords.index)",
        ("tests/test_extract.py::test_a_new_separator_is_not_paired_with_a_renamed_keyword",),
    ),
    Mutant(
        "the signature scan does not count the mark right after an assignment's terminal",
        "evaluate.py",
        'elif token == "?" or token == "*" or token == "+":',
        'elif token in ("?", "*", "+") and sig[i - 2] not in ASSIGN_OPERATORS:',
        ("tests/test_evaluate.py::test_signature_scan_matches_the_reference_on_drawn_rules",),
    ),
    Mutant(
        "the greedy search goes on after reaching distance 0",
        "extract.py",
        "break  # no later candidate can lower it",
        "pass",
        ("tests/test_extract.py::test_trio_search_indexes_each_rule_state_once",),
    ),
    Mutant(
        "token_distance drops the carry into the low bit of the +1 steps",
        "parsing.py",
        "ph = ((ph << 1) | 1) & mask",
        "ph = (ph << 1) & mask",
        ("tests/test_parsing.py::test_token_distance_on_fixed_long_spans",),
    ),
    Mutant(
        "token_distance holds its bit vectors in 64 bits",
        "parsing.py",
        "mask = bit - 1\n",
        "mask = (bit - 1) & 0xFFFFFFFFFFFFFFFF\n",
        ("tests/test_parsing.py::test_token_distance_on_fixed_long_spans",),
    ),
    Mutant(
        "config_from_json lets a RecursionError through",
        "transform.py",
        "    except (ValueError, RecursionError) as err:\n        raise TransformError(f\"invalid config JSON",
        "    except ValueError as err:\n        raise TransformError(f\"invalid config JSON",
        ("tests/test_transform.py::test_config_from_json_rejects_deep_or_huge_json",),
    ),
    Mutant(
        "_rewritten does not settle the rewritten body",
        "transform.py",
        "ParserRule(rule.name, rule.returns_type, settle(body), enum=rule.enum), matched",
        "ParserRule(rule.name, rule.returns_type, body, enum=rule.enum), matched",
        ("tests/test_rewrite.py::test_drawn_rules_agree_with_the_reference",),
    ),
    Mutant(
        "_rewrite does not collapse a group that lost a child",
        "transform.py",
        "return collapse(expr), matched",
        "return expr, matched",
        (
            "tests/test_rewrite.py::test_emptied_sibling_is_collapsed",
            "tests/test_rewrite.py::test_separator_remainder_is_collapsed",
        ),
    ),
    Mutant(
        "REMOVE_BRACES and REMOVE_KEYWORD swap phases",
        "transform.py",
        "OpSpec(4, AdaptationType.BRACE_OPTIONALITY_REMOVAL,\n"
        "        _apply_remove_braces, None, (), None),\n"
        "    OpKind.REMOVE_KEYWORD: OpSpec(5,",
        "OpSpec(5, AdaptationType.BRACE_OPTIONALITY_REMOVAL,\n"
        "        _apply_remove_braces, None, (), None),\n"
        "    OpKind.REMOVE_KEYWORD: OpSpec(4,",
        (
            "tests/test_catalog.py::test_phases_are_pinned",
            "tests/test_catalog.py::test_readme_catalog_table_matches_the_rows",
        ),
    ),
    Mutant(
        "ADD_TERMINATOR and CHANGE_CALLED_RULE swap phases",
        "transform.py",
        "OpSpec(6, AdaptationType.SEPARATOR_MODIFICATION,\n"
        "        _apply_add_terminator, None, (\"text\",), (\"text\", printable_keyword)),\n"
        "    OpKind.CHANGE_CALLED_RULE: OpSpec(7,",
        "OpSpec(7, AdaptationType.SEPARATOR_MODIFICATION,\n"
        "        _apply_add_terminator, None, (\"text\",), (\"text\", printable_keyword)),\n"
        "    OpKind.CHANGE_CALLED_RULE: OpSpec(6,",
        (
            "tests/test_catalog.py::test_phases_are_pinned",
            "tests/test_catalog.py::test_readme_catalog_table_matches_the_rows",
        ),
    ),
    Mutant(
        "MAKE_BRACES_OPTIONAL wraps brace regions below the body root too",
        "transform.py",
        "return _rewritten(rule, fn, [])",
        "return _rewritten(rule, fn, [()])",
        ("tests/test_transform.py::test_make_braces_optional_wraps_only_the_rule_level_region",),
    ),
    Mutant(
        "top_sequence treats every Group body as a sequence, a braces wrapper too",
        "model.py",
        "return body.children if isinstance(body, Group) and body.plain else (body,)",
        "return body.children if isinstance(body, Group) else (body,)",
        ("tests/test_extract.py::test_a_braces_wrapper_body_extracts_without_fallback",),
    ),
    Mutant(
        "MAKE_BRACES_OPTIONAL wraps a region that a group wraps already",
        "transform.py",
        "if region is None or region[1]:",
        "if region is None:",
        ("tests/test_transform.py::test_make_braces_optional_on_a_wrapped_region_matches_nothing",),
    ),
    Mutant(
        "a node's __init__ skips __post_init__",
        "model.py",
        '        body.append("self.__post_init__()")\n',
        "        pass\n",
        ("tests/test_model.py::test_group_and_alternatives_turn_a_list_into_a_tuple",),
    ),
    Mutant(
        "the parser builds a multi-element group plain, then again with its marks",
        "parsing.py",
        "return Group(tuple(branches[0]), **marks)",
        "return replace(Group(tuple(branches[0])), **marks)",
        ("tests/test_parsing.py::test_the_parser_builds_one_group_per_parenthesized_group",),
    ),
    Mutant(
        "a node's __init__ takes its keyword-only fields positionally too",
        "model.py",
        'params = ", ".join(positional + keyword if len(keyword) > 1 else positional)',
        'params = ", ".join(positional + keyword[1:])',
        ("tests/test_model.py::test_init_takes_the_stdlib_parameters",),
    ),
    Mutant(
        "HttpBackend lets a ValueError or RecursionError through",
        "llm.py",
        "except (OSError, ValueError, RecursionError) as err:  # URLError is an OSError",
        "except OSError as err:",
        (
            "tests/test_cli.py::test_adapt_endpoint_without_a_scheme_exit_4",
            "tests/test_llm.py::test_http_backend_deep_response_is_a_backend_error",
        ),
    ),
    Mutant(
        "the CLI lets an undecodable grammar file through",
        "cli.py",
        "    except (OSError, UnicodeDecodeError) as err:\n        raise _InputError(f\"cannot read {path}",
        "    except OSError as err:\n        raise _InputError(f\"cannot read {path}",
        ("tests/test_cli.py::test_non_utf8_input_exit_2[grammar]",),
    ),
    Mutant(
        "the CLI lets an ExtractionError through",
        "cli.py",
        "except (_InputError, TransformError, ExtractionError) as err:",
        "except (_InputError, TransformError) as err:",
        ("tests/test_cli.py::test_extract_internal_failure_exit_2",),
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    for name in ("pyproject.toml", "README.md"):  # a catalog test reads README.md
        shutil.copy2(ROOT / name, dest / name)


def _start(workdir: Path, tests: tuple[str, ...]) -> subprocess.Popen:
    """Start the named tests in ``workdir`` against its own ``src``, all of
    them, with a ``FAILED <id>`` summary line per failed test."""
    path = os.pathsep.join([str(workdir / "src"), str(workdir / "tests")])
    env = dict(os.environ, PYTHONPATH=path, XTADAPT_MUTATION_CHECK="1")
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *tests]
    pipe = subprocess.PIPE
    return subprocess.Popen(command, cwd=workdir, env=env, stdout=pipe, stderr=pipe, text=True)


def _finish(run: subprocess.Popen) -> subprocess.CompletedProcess:
    out, err = run.communicate()
    return subprocess.CompletedProcess(run.args, run.returncode, out, err)


def _survivors(result: subprocess.CompletedProcess, tests: tuple[str, ...]) -> list[str]:
    """The named tests that did not fail; a name without parameters failed
    when one of its cases did."""
    failed = [
        line.split(" ")[1]
        for line in result.stdout.splitlines()
        if line.startswith("FAILED ")
    ]
    return [t for t in tests if not any(f == t or f.startswith(t + "[") for f in failed)]


def _imports_copy(workdir: Path) -> bool:
    """Whether the tests in ``workdir`` import xtadapt from its copy."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    command = [sys.executable, "-c", "import xtadapt; print(xtadapt.__file__)"]
    out = subprocess.run(command, cwd=workdir, env=env, capture_output=True, text=True).stdout
    return Path(out.strip()).resolve().is_relative_to((workdir / "src").resolve())


def _tail(result: subprocess.CompletedProcess, lines: int = 15) -> str:
    return "\n".join((result.stdout + result.stderr).splitlines()[-lines:])


def main() -> int:
    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="xtadapt-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        if not _imports_copy(clean):
            print("error: the copied tests do not import xtadapt from the copy", file=sys.stderr)
            return 1
        every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        baseline = _start(clean, every_test)
        for i, mutant in enumerate(MUTANTS):
            workdir = Path(tmp) / f"mutant{i}"
            _copy(workdir)
            target = workdir / "src" / "xtadapt" / mutant.file
            text = target.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                found = text.count(mutant.old)
                problems.append(f"{mutant.name}: old text found {found} times in {mutant.file}")
                print(f"STALE     {mutant.name}")
                continue
            target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            result = _finish(_start(workdir, mutant.tests))
            seconds = time.perf_counter() - start
            shutil.rmtree(workdir)
            survivors = _survivors(result, mutant.tests)
            if result.returncode in (0, 1) and not survivors:  # every named test failed
                print(f"killed    {mutant.name} ({seconds:.1f} s)")
            elif result.returncode in (0, 1):
                problems.append(f"{mutant.name}: survived {', '.join(survivors)}")
                print(f"SURVIVED  {mutant.name} ({seconds:.1f} s)")
            else:
                problems.append(f"{mutant.name}: pytest exit {result.returncode}\n{_tail(result)}")
                print(f"ERROR     {mutant.name}: pytest exit {result.returncode}")
        baseline = _finish(baseline)
        if baseline.returncode != 0:
            print("error: the named tests fail on an unmodified copy:", file=sys.stderr)
            print(_tail(baseline), file=sys.stderr)
            return 1
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"{len(MUTANTS) - len(problems)} of {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
