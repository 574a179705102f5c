"""Whole-pipeline scenarios: scale behavior and multi-step evolution chains."""

import importlib
from collections import Counter
from dataclasses import replace

from corpus import build_trio, corpus_pairs, grammar_body_tokens
import xtadapt.extract as extract
import xtadapt.parsing as parsing
import xtadapt.transform as transform
from xtadapt.evaluate import AdaptationType, evaluate
from xtadapt.extract import extract_config
from xtadapt.model import Grammar
from xtadapt.parsing import parse_grammar
from xtadapt.transform import OpKind, apply_config

#: The module, which the package's `evaluate` function shadows.
evaluate_module = importlib.import_module("xtadapt.evaluate")


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

    evaluation = evaluate(g1, adapted, g1prime)
    assert (evaluation.n_total, evaluation.n_correct, evaluation.rac) == (50, 50, 1.0)
    assert (evaluation.same, evaluation.diff, evaluation.percent) == (50, 0, 1.0)

    per_type = evaluation.per_type
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
    evaluation = evaluate(g2, g2prime, expected_v2)
    assert evaluation.n_total == 6
    assert (evaluation.n_correct, evaluation.rac) == (6, 1.0)

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
    assert evaluate(g3, g3prime, expected_v3).rac == 1.0


# -- counted work -----------------------------------------------------------


def test_counted_work_grows_linearly_in_rules(monkeypatch):
    """Learning, replaying and scoring a trio of 50, 200 and 800 rules: each
    unit of work (pair searches, rule index builds, applier calls and
    signatures) grows at most 4.4x per 4x rules.  Counts, not timings."""
    counts = Counter()

    def counting(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)

        return counted

    for module in (parsing, transform, extract, evaluate_module):
        for name in ("infer_rule_ops", "rule_signature"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for kind, spec in list(transform.CATALOG.items()):
        counted = replace(spec, apply=counting("applier", spec.apply))
        monkeypatch.setitem(transform.CATALOG, kind, counted)
    build = transform.RuleIndex.__init__

    def counted_build(self, rule):
        counts["RuleIndex"] += 1
        build(self, rule)

    monkeypatch.setattr(transform.RuleIndex, "__init__", counted_build)

    per_size = []
    for total in (50, 200, 800):
        g2, candidate, target = build_trio(total, total // 2, total // 10)
        counts.clear()
        config = extract_config(g2, target).config
        apply_config(config, g2)
        evaluate(g2, candidate, target)
        per_size.append(dict(counts))
    assert set(per_size[0]) == {"infer_rule_ops", "rule_signature", "applier", "RuleIndex"}
    for small, big in zip(per_size, per_size[1:]):
        for name, count in small.items():
            assert big[name] <= 4.4 * count, (name, small, big)


def test_extract_applies_and_indexes_only_inside_the_pair_search(monkeypatch):
    """The pair search proves each rule, so extract makes no applier call
    and no index build of its own, apart from applying each fallback body
    once: the 200-rule trio takes one applier call per differing rule."""
    counts = Counter()
    depth = [0]
    search = extract.infer_rule_ops

    def counted_search(*args):
        depth[0] += 1
        try:
            return search(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(extract, "infer_rule_ops", counted_search)
    for kind, spec in list(transform.CATALOG.items()):

        def counted(*args, kind=kind, applier=spec.apply):
            counts["applier", kind if not depth[0] else "search"] += 1
            return applier(*args)

        monkeypatch.setitem(transform.CATALOG, kind, replace(spec, apply=counted))
    build = transform.RuleIndex.__init__

    def counted_build(self, rule):
        counts["RuleIndex", "search" if depth[0] else "extract"] += 1
        build(self, rule)

    monkeypatch.setattr(transform.RuleIndex, "__init__", counted_build)

    g2, _, target = build_trio(200, 100, 20)
    result = extract_config(g2, target)
    assert result.fallback_count == 0
    assert counts == {("applier", "search"): 100, ("RuleIndex", "search"): 200}
    for name, g1, g1prime, _ in corpus_pairs():
        counts.clear()
        config = extract_config(g1, g1prime).config
        bodies = [e for e in config.entries if e.kind is OpKind.REPLACE_RULE and "body" in e.params]
        assert counts["applier", OpKind.REPLACE_RULE] == len(bodies), name
        assert {key for key in counts if key[1] != "search"} <= {("applier", OpKind.REPLACE_RULE)}
