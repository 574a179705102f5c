"""Whole-pipeline scenarios: scale behavior and multi-step evolution chains."""

from corpus import grammar_body_tokens
from xtadapt.evaluate import (
    AdaptationType,
    classify_adaptations,
    compute_rac,
    compute_similarity,
)
from xtadapt.extract import extract_config
from xtadapt.model import Grammar
from xtadapt.parsing import parse_grammar
from xtadapt.transform import apply_config


def _entity_rule(name: str, extra_attr: str | None = None) -> str:
    attrs = [
        "        'shortName' shortName=Identifier",
        f"        ('name' name=String0)?",
    ]
    if extra_attr:
        attrs.append(f"        ('{extra_attr}' {extra_attr}=Identifier)?")
    attr_block = "\n".join(attrs)
    return (
        f"{name} returns {name}:\n"
        f"    '{name}'\n"
        "    '{'\n"
        f"{attr_block}\n"
        "    '}';"
    )


def _adapted_entity_rule(name: str, extra_attr: str | None = None) -> str:
    attrs = [
        f"        ('name' name=Identifier ';')?",
    ]
    if extra_attr:
        attrs.append(f"        ('{extra_attr}' {extra_attr}=Identifier)?")
    attr_block = "\n".join(attrs)
    return (
        f"{name} returns {name}:\n"
        f"    '{name}'\n"
        "    shortName=Identifier\n"
        "    ('{'\n"
        f"{attr_block}\n"
        "    '}')?;"
    )


def _grammar(parts: list[str]) -> Grammar:
    parsed = parse_grammar("\n\n".join(parts))
    assert isinstance(parsed, Grammar)
    return parsed


def test_systematic_adaptations_across_many_rules():
    """Uniform entity-rule adaptations replay across a 50-rule grammar."""
    names = [f"Entity{i:02d}" for i in range(50)]
    g1 = _grammar([_entity_rule(n) for n in names])
    g1prime = _grammar([_adapted_entity_rule(n) for n in names])

    result = extract_config(g1, g1prime)
    assert result.fallback_count == 0
    adapted, report = apply_config(result.config, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)
    assert report.warnings == []

    n_total, n_correct, rac = compute_rac(g1, adapted, g1prime)
    assert (n_total, n_correct, rac) == (50, 50, 1.0)
    same, diff, percent = compute_similarity(adapted, g1prime)
    assert (same, diff, percent) == (50, 0, 1.0)

    per_type = classify_adaptations(g1, g1prime, adapted)
    promotion = per_type[AdaptationType.ATTRIBUTE_PROMOTION]
    assert promotion.occurrences == 50
    assert promotion.correct == 50
    braces = per_type[AdaptationType.BRACE_OPTIONALITY_REMOVAL]
    assert braces.occurrences == 50


def test_longitudinal_reuse_across_evolution_steps():
    """A config learned once keeps working across consecutive regenerations."""
    v1_names = [f"Entity{i:02d}" for i in range(6)]
    g1 = _grammar([_entity_rule(n) for n in v1_names])
    g1prime = _grammar([_adapted_entity_rule(n) for n in v1_names])
    config_v1 = extract_config(g1, g1prime).config

    # Evolution step 1: one metaclass gains a property, one metaclass is new.
    v2_names = v1_names + ["EntityNew"]
    g2 = _grammar(
        [_entity_rule(n, extra_attr="comment" if n == "Entity03" else None) for n in v2_names]
    )
    g2prime, report = apply_config(config_v1, g2)
    assert report.warnings == []
    expected_v2 = _grammar(
        [
            _adapted_entity_rule(n, extra_attr="comment" if n == "Entity03" else None)
            for n in v1_names
        ]
        + [_entity_rule("EntityNew")]
    )
    # Rules the config knows about are adapted; the new rule stays generated.
    n_total, n_correct, rac = compute_rac(g2, g2prime, expected_v2)
    assert n_total == 6
    assert (n_correct, rac) == (6, 1.0)

    # Evolution step 2: learn from the richer pair (now covering EntityNew),
    # then reuse on a third version where a metaclass disappeared.
    full_v2_target = _grammar(
        [
            _adapted_entity_rule(n, extra_attr="comment" if n == "Entity03" else None)
            for n in v2_names
        ]
    )
    config_v2 = extract_config(g2, full_v2_target).config
    v3_names = [n for n in v2_names if n != "Entity01"]
    g3 = _grammar(
        [_entity_rule(n, extra_attr="comment" if n == "Entity03" else None) for n in v3_names]
    )
    g3prime, report = apply_config(config_v2, g3)
    assert any("Entity01" in w for w in report.warnings)  # dropped rule reports NO_MATCH
    expected_v3 = _grammar(
        [
            _adapted_entity_rule(n, extra_attr="comment" if n == "Entity03" else None)
            for n in v3_names
        ]
    )
    assert grammar_body_tokens(g3prime) == grammar_body_tokens(expected_v3)
    n_total, n_correct, rac = compute_rac(g3, g3prime, expected_v3)
    assert rac == 1.0
