"""Golden outputs of the learn/replay/evaluate pipeline.

For every bundled fixture pair and the mission evolved trio, ``tests/golden/``
holds the extracted config JSON, the printed ``G2'``, the apply outcomes and
the evaluation report JSON.  For 200 seeded ``random_mutation_pair`` mutants
one SHA-256 covers the same outputs.  A change to extract, apply or evaluate
that moves a single output byte fails here.

Regenerate the files, only when an output change is intended, with
``PYTHONPATH=src:tests python tests/test_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from corpus import PAIRS, load_grammar, load_pair, random_mutation_pair
from xtadapt.conformance import check_conformance
from xtadapt.evaluate import evaluate
from xtadapt.extract import extract_config
from xtadapt.model import Grammar
from xtadapt.parsing import print_grammar
from xtadapt.transform import apply_config, config_to_json

GOLDEN = Path(__file__).parent / "golden"
MUTANTS = 200
MUTANT_DIGEST = GOLDEN / "mutants.sha256"

#: File suffix of each pipeline output.
SUFFIXES = {
    "config": ".config.json",
    "g2prime": ".g2prime.xtext",
    "apply": ".apply.txt",
    "report": ".report.json",
}


def pipeline(g1: Grammar, g1prime: Grammar, g2: Grammar, target: Grammar) -> dict[str, str]:
    """The outputs of ``extract``, ``apply`` and ``evaluate`` as text."""
    config = extract_config(g1, g1prime).config
    adapted, apply_report = apply_config(config, g2)
    outcomes = "".join(f"{o.matched}\t{o.op.describe()}\n" for o in apply_report.outcomes)
    report = evaluate(g2, adapted, target, check_conformance(adapted))
    return {
        "config": config_to_json(config),
        "g2prime": print_grammar(adapted),
        "apply": outcomes,
        "report": json.dumps(report.to_json_dict(), indent=2) + "\n",
    }


def cases() -> dict[str, tuple[Grammar, Grammar, Grammar, Grammar]]:
    """(G1, G1', G2, target) per case: each pair replays on its own G1."""
    out = {}
    for name, _ in PAIRS:
        g1, g1prime = load_pair(name)
        out[name] = (g1, g1prime, g1, g1prime)
    out["mission_evolved"] = (
        *load_pair("mission"),
        load_grammar("mission_evolved.xtext"),
        load_grammar("mission_evolved_target.xtext"),
    )
    return out


def mutant_digest() -> str:
    """SHA-256 over the outputs of the first 200 mutants, seeds 0, 1, ...,
    cycling through the pairs' generated grammars as bases."""
    bases = [load_grammar(f"{name}_generated.xtext") for name, _ in PAIRS]
    digest = hashlib.sha256()
    seed = found = 0
    while found < MUTANTS:
        base = bases[seed % len(bases)]
        mutation = random_mutation_pair(base, random.Random(seed))
        seed += 1
        if mutation is None:
            continue
        mutated, _ = mutation
        outputs = pipeline(base, mutated, base, mutated)
        for key in SUFFIXES:
            digest.update(outputs[key].encode("utf-8") + b"\0")
        found += 1
    return digest.hexdigest()


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden_case(case):
    outputs = pipeline(*cases()[case])
    for key, suffix in SUFFIXES.items():
        expected = (GOLDEN / f"{case}{suffix}").read_text(encoding="utf-8")
        assert outputs[key] == expected, f"{case}{suffix}"


def test_golden_mutants():
    assert mutant_digest() == MUTANT_DIGEST.read_text(encoding="utf-8").strip()


def _write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for case, grammars in cases().items():
        for key, text in pipeline(*grammars).items():
            (GOLDEN / f"{case}{SUFFIXES[key]}").write_text(text, encoding="utf-8")
    MUTANT_DIGEST.write_text(mutant_digest() + "\n", encoding="utf-8")


if __name__ == "__main__":
    _write_golden()
