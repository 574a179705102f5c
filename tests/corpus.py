"""Shared fixture-corpus access and mutation helpers for the test suite."""

from __future__ import annotations

import random
from pathlib import Path

from xtadapt.model import (
    Assignment,
    Cardinality,
    Grammar,
    Group,
    Keyword,
    RuleCall,
    node_at,
    walk,
)
from xtadapt.parsing import parse_grammar, print_grammar, rule_signature, tokenize
from xtadapt.transform import (
    OpKind,
    TransformOp,
    RuleIndex,
    TransformationConfig,
    apply_config,
    attribute_scope,
    rule_scope,
)

FIXTURES = Path(__file__).parent / "fixtures"


def normalize_token(token: str) -> str:
    """Canonical form for comparison: double-quoted literals become single-quoted."""
    if len(token) >= 2 and token[0] == '"' and token[-1] == '"':
        return "'" + token[1:-1] + "'"
    return token


def normalized_tokens(source_text: str) -> list[str]:
    return [normalize_token(t) for t in tokenize(source_text)]


def grammar_body_tokens(grammar: Grammar) -> list[str]:
    """Comparison tokens of all rules and terminals, header excluded."""
    tokens: list[str] = []
    for rule in grammar.rules:
        tokens.extend(rule_signature(rule))
    terminals = Grammar(declared_terminals=grammar.declared_terminals)
    return tokens + normalized_tokens(print_grammar(terminals))

#: (pair name, catalog-expressible) — expressible pairs must extract with
#: fallbackCount 0; the others exercise the REPLACE_RULE fallback.
PAIRS: list[tuple[str, bool]] = [
    ("mission", True),
    ("vehiclefeature", True),
    ("typebounds", True),
    ("comment", True),
    ("requirement", True),
    ("label", True),
    ("nodelist", True),
    ("deadline", True),
    ("dotstatements", True),
    ("port", False),
    ("xtypeparameter", False),
    ("xgenerictype", False),
    ("xattribute", False),
]

SINGLE_GRAMMARS = ["edgeop"]


def read_fixture(filename: str) -> str:
    return (FIXTURES / filename).read_text(encoding="utf-8")


def load_grammar(filename: str) -> Grammar:
    parsed = parse_grammar(read_fixture(filename))
    assert isinstance(parsed, Grammar), f"{filename} failed to parse: {parsed}"
    return parsed


def load_pair(name: str) -> tuple[Grammar, Grammar]:
    return load_grammar(f"{name}_generated.xtext"), load_grammar(f"{name}_target.xtext")


def corpus_pairs() -> list[tuple[str, Grammar, Grammar, bool]]:
    """All bundled (generated, target) pairs plus one identity pair."""
    pairs = [(name, *load_pair(name), expressible) for name, expressible in PAIRS]
    identity = load_grammar("mission_generated.xtext")
    pairs.append(("identity", identity, identity, True))
    return pairs


def corpus_grammars() -> list[tuple[str, Grammar]]:
    """Every distinct grammar in the corpus, for parser round-trip checks."""
    grammars = []
    for name, _ in PAIRS:
        grammars.append((f"{name}_generated", load_grammar(f"{name}_generated.xtext")))
        grammars.append((f"{name}_target", load_grammar(f"{name}_target.xtext")))
    for name in SINGLE_GRAMMARS:
        grammars.append((name, load_grammar(f"{name}.xtext")))
    return grammars


def build_trio(total: int, required: int, correct: int) -> tuple[Grammar, Grammar, Grammar]:
    """(g2, candidate, target) where ``required`` of ``total`` rules differ in
    g2 and the candidate realizes the first ``correct`` of them."""
    assert correct <= required <= total
    g2_parts, cand_parts, target_parts = [], [], []
    for i in range(total):
        name = f"R{i:02d}"
        verbose = (
            f"{name} returns {name}:\n"
            f"    '{name}'\n"
            "    '{'\n"
            f"        ('val' val{i}=ID)?\n"
            "    '}';"
        )
        adapted = verbose.replace("('val' val", "(val")
        if i < required:
            g2_parts.append(verbose)
            target_parts.append(adapted)
            cand_parts.append(adapted if i < correct else verbose)
        else:
            g2_parts.append(verbose)
            target_parts.append(verbose)
            cand_parts.append(verbose)
    grammars = tuple(parse_grammar("\n\n".join(p)) for p in (g2_parts, cand_parts, target_parts))
    assert all(isinstance(g, Grammar) for g in grammars)
    return grammars


# ---------------------------------------------------------------------------
# Randomized mutation: derive (g, g') pairs by applying catalog operations
# ---------------------------------------------------------------------------

_RENAME_POOL = ["extends", "front", "uses", "provides", "items", "meta"]
_CALL_POOL = ["UUID", "Identifier", "QualifiedName", "TimeValue"]
_SEPARATOR_POOL = [";", "&", None]


def _mutation_candidates(grammar: Grammar) -> list[TransformOp]:
    ops: list[TransformOp] = []
    for rule in grammar.rules:
        index = RuleIndex(rule)
        features = []
        for _, node in walk(rule.body):
            if isinstance(node, Assignment) and node.feature not in features:
                features.append(node.feature)
        keywords = sorted(
            {
                n.text
                for _, n in walk(rule.body)
                if isinstance(n, Keyword) and n.text not in ("{", "}")
            }
        )
        for text in keywords:
            ops.append(TransformOp(OpKind.REMOVE_KEYWORD, rule_scope(rule.name), {"text": text}))
            for new in _RENAME_POOL:
                if new != text:
                    ops.append(
                        TransformOp(
                            OpKind.RENAME_KEYWORD,
                            rule_scope(rule.name),
                            {"from": text, "to": new},
                        )
                    )
                    break
        for feature in features:
            scope = attribute_scope(rule.name, feature)
            anchors = index.anchors.get(feature, [])
            if not anchors:
                continue
            anchor_node = node_at(rule.body, anchors[0])
            if anchor_node.cardinality is Cardinality.OPTIONAL:
                ops.append(TransformOp(OpKind.REMOVE_OPTIONALITY, scope))
            if anchor_node.cardinality is Cardinality.ONE:
                ops.append(TransformOp(OpKind.ADD_OPTIONALITY, scope))
            if isinstance(anchor_node, Group):
                ops.append(TransformOp(OpKind.ADD_TERMINATOR, scope, {"text": ";"}))
            for _, node in walk(anchor_node):
                if (
                    isinstance(node, Group)
                    and node.cardinality in (Cardinality.STAR, Cardinality.PLUS)
                    and node.children
                    and isinstance(node.children[0], Keyword)
                ):
                    sep = node.children[0].text
                    for new_sep in _SEPARATOR_POOL:
                        if new_sep != sep:
                            ops.append(
                                TransformOp(
                                    OpKind.CHANGE_SEPARATOR,
                                    scope,
                                    {"from": sep, "to": new_sep},
                                )
                            )
                if isinstance(node, Keyword) and node.text in ("{", "}"):
                    ops.append(TransformOp(OpKind.REMOVE_BRACES, scope))
                    break
        for _, node in walk(rule.body):
            if isinstance(node, Assignment) and isinstance(node.terminal, RuleCall):
                for new_call in _CALL_POOL:
                    if new_call != node.terminal.rule_name:
                        ops.append(
                            TransformOp(
                                OpKind.CHANGE_CALLED_RULE,
                                attribute_scope(rule.name, node.feature),
                                {"from": node.terminal.rule_name, "to": new_call},
                            )
                        )
                        break
        body = rule.body
        if isinstance(body, Group) and any(
            isinstance(c, Keyword) and c.text == "{" for c in body.children
        ):
            ops.append(TransformOp(OpKind.MAKE_BRACES_OPTIONAL, rule_scope(rule.name)))
    return ops


def random_mutation_pair(
    base: Grammar, rng: random.Random, max_ops: int = 3
) -> tuple[Grammar, TransformationConfig] | None:
    """Mutate ``base`` with 1..max_ops random catalog operations.

    Returns (mutant, config applied) or None when nothing applied cleanly.
    """
    candidates = _mutation_candidates(base)
    if not candidates:
        return None
    rng.shuffle(candidates)
    chosen = candidates[: rng.randint(1, max_ops)]
    config = TransformationConfig(entries=tuple(chosen), provenance="mutation")
    try:
        mutated, report = apply_config(config, base)
    except Exception:
        return None
    if all(outcome.no_match for outcome in report.outcomes):
        return None
    return mutated, config
