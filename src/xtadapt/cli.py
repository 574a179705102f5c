"""Command-line pipeline: extract, apply, adapt, evaluate and check.

Exit codes are a stable contract: 0 success or PASS, 1 conformance findings,
2 input error, 3 adaptation exhausted, 4 backend error.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .conformance import check_conformance, load_terminals_file
from .evaluate import evaluate, report_table
from .extract import ExtractionError, extract_config
from .llm import (
    DEFAULT_TOKEN_BUDGET,
    BackendError,
    HttpBackend,
    MockBackend,
    Outcome,
    run_adaptation,
    save_transcript,
)
from .model import Grammar
from .parsing import parse_grammar, print_grammar
from .transform import (
    TransformError,
    apply_config,
    config_from_json,
    config_summary,
    config_to_json,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_INPUT_ERROR = 2
EXIT_EXHAUSTED = 3
EXIT_BACKEND_ERROR = 4


class _InputError(Exception):
    pass


def _load_grammar(path: str) -> Grammar:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(f"cannot read {path}: {err}") from err
    parsed = parse_grammar(text)
    if isinstance(parsed, Grammar):
        return parsed
    lines = [f"{path}: parse failed"] + [f"  {d}" for d in parsed]
    raise _InputError("\n".join(lines))


def _load_terminals(path: str | None) -> frozenset[str]:
    if path is None:
        return frozenset()
    try:
        return load_terminals_file(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(f"cannot read terminals file {path}: {err}") from err


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Report an OSError raised while writing ``path`` as an input error."""
    try:
        yield
    except OSError as err:
        raise _InputError(f"cannot write {path}: {err}") from err


def _write(path: Path, text: str) -> None:
    with _writing(path):
        path.write_text(text, encoding="utf-8")


def _make_backend(spec: str, model: str, credential_env: str):
    kind, _, rest = spec.partition(":")
    if kind == "mock":
        if not rest:
            raise _InputError("--backend mock:FILE requires a replay file path")
        try:
            return MockBackend.from_replay_file(rest)
        except (OSError, ValueError, RecursionError, BackendError) as err:
            raise _InputError(f"cannot load replay file {rest}: {err}") from err
    if kind == "http":
        if not rest:
            raise _InputError("--backend http:URL requires an endpoint URL")
        return HttpBackend(rest, model=model, credential_env=credential_env)
    raise _InputError(f"unknown backend {spec!r}; expected mock:FILE or http:URL")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    g1 = _load_grammar(args.g1)
    g1prime = _load_grammar(args.g1_prime)
    result = extract_config(g1, g1prime)
    _write(Path(args.out_config), config_to_json(result.config))
    entries = len(result.config.entries)
    if result.config.is_identity:
        print("identity config: 0 operations")
    else:
        print(f"extracted {entries} operations, fallbackCount {result.fallback_count}")
        print(config_summary(result.config), end="")
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    try:
        config = config_from_json(Path(args.config).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as err:
        raise _InputError(f"cannot read config {args.config}: {err}") from err
    grammar = _load_grammar(args.g2)
    adapted, report = apply_config(config, grammar)
    _write(Path(args.out), print_grammar(adapted))
    for warning in report.warnings:
        print(warning, file=sys.stderr)
    return EXIT_OK


def cmd_adapt(args: argparse.Namespace) -> int:
    g1 = _load_grammar(args.g1)
    g1prime = _load_grammar(args.g1_prime)
    g2 = _load_grammar(args.g2)
    target = _load_grammar(args.target) if args.target else None
    terminals = _load_terminals(args.terminals)
    backend = _make_backend(args.backend, args.model, args.credential_env)
    out_dir = Path(args.out)
    with _writing(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    session = run_adaptation(
        g1,
        g1prime,
        g2,
        backend,
        known_terminals=terminals,
        token_budget=args.token_budget,
    )
    transcript = out_dir / "transcript.json"
    with _writing(transcript):
        save_transcript(session, str(transcript))
    if session.extracted_grammar is not None:
        _write(out_dir / "g2prime.xtext", print_grammar(session.extracted_grammar))
        if target is not None:
            # The session accepted this grammar only with no conformance findings.
            report = evaluate(g2, session.extracted_grammar, target)
            _write(out_dir / "report.json", json.dumps(report.to_json_dict(), indent=2) + "\n")
            print(report_table(report), end="")
    if session.truncation_risk:
        print("warning: prompt size exceeds token budget (TRUNCATION_RISK)", file=sys.stderr)
    if session.outcome is Outcome.ACCEPTED:
        print(f"ACCEPTED after {session.follow_ups_used} follow-ups")
        return EXIT_OK
    if session.outcome is Outcome.EXHAUSTED:
        print(
            f"EXHAUSTED: validation still failing after {session.follow_ups_used} follow-ups",
            file=sys.stderr,
        )
        return EXIT_EXHAUSTED
    print(f"backend error: {session.error}", file=sys.stderr)
    return EXIT_BACKEND_ERROR


def cmd_evaluate(args: argparse.Namespace) -> int:
    g2 = _load_grammar(args.g2)
    candidate = _load_grammar(args.candidate)
    target = _load_grammar(args.target)
    terminals = _load_terminals(args.terminals)
    findings = check_conformance(candidate, terminals)
    report = evaluate(g2, candidate, target, findings)
    print(report_table(report), end="")
    if args.out:
        out = Path(args.out)
        if out.is_dir():
            out = out / "report.json"
        _write(out, json.dumps(report.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    grammar = _load_grammar(args.grammar)
    terminals = _load_terminals(args.terminals)
    findings = check_conformance(grammar, terminals)
    if not findings:
        print("PASS")
        return EXIT_OK
    for finding in findings:
        print(str(finding))
    return EXIT_FINDINGS


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xtadapt",
        description=(
            "Learn concrete-syntax adaptations from a prior grammar pair, "
            "replay them on regenerated grammars, and evaluate candidates."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser(
        "extract", help="learn a transformation config from a grammar pair"
    )
    p_extract.add_argument("--g1", required=True, help="generated grammar file")
    p_extract.add_argument("--g1-prime", required=True, help="adapted grammar file")
    p_extract.add_argument("--out-config", required=True, help="output config JSON path")
    p_extract.set_defaults(func=cmd_extract)

    p_apply = sub.add_parser("apply", help="apply a transformation config to a grammar")
    p_apply.add_argument("--config", required=True, help="config JSON path")
    p_apply.add_argument("--g2", required=True, help="grammar file to transform")
    p_apply.add_argument("--out", required=True, help="output grammar path")
    p_apply.set_defaults(func=cmd_apply)

    p_adapt = sub.add_parser(
        "adapt", help="run the two-prompt adaptation protocol against a backend"
    )
    p_adapt.add_argument("--g1", required=True)
    p_adapt.add_argument("--g1-prime", required=True)
    p_adapt.add_argument("--g2", required=True)
    p_adapt.add_argument("--target", help="target grammar for an evaluation report")
    p_adapt.add_argument(
        "--backend", required=True, help="mock:REPLAY_FILE or http:ENDPOINT_URL"
    )
    p_adapt.add_argument("--model", default="default", help="model name for http backends")
    p_adapt.add_argument(
        "--credential-env",
        default="XTADAPT_API_KEY",
        help="environment variable holding the http credential",
    )
    p_adapt.add_argument("--terminals", help="known-terminals file, one name per line")
    p_adapt.add_argument("--out", required=True, help="output directory")
    p_adapt.add_argument(
        "--token-budget",
        type=int,
        default=DEFAULT_TOKEN_BUDGET,
        help="prompt size estimate above which the session is flagged",
    )
    p_adapt.set_defaults(func=cmd_adapt)

    p_eval = sub.add_parser(
        "evaluate", help="compare a candidate adapted grammar against the target"
    )
    p_eval.add_argument("--g2", required=True, help="generated grammar file")
    p_eval.add_argument("--candidate", required=True, help="candidate adapted grammar")
    p_eval.add_argument("--target", required=True, help="target adapted grammar")
    p_eval.add_argument("--terminals", help="known-terminals file")
    p_eval.add_argument("--out", help="report JSON path or directory")
    p_eval.set_defaults(func=cmd_evaluate)

    p_check = sub.add_parser("check", help="well-formedness check of one grammar")
    p_check.add_argument("grammar", help="grammar file")
    p_check.add_argument("--terminals", help="known-terminals file")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (_InputError, TransformError, ExtractionError) as err:
        print(str(err), file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
