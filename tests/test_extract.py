import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    PAIRS,
    corpus_pairs,
    grammar_body_tokens,
    load_grammar,
    load_pair,
    random_mutation_pair,
    read_fixture,
)
import xtadapt.transform as transform
from xtadapt.extract import extract_config, infer_rule_ops, pair_rules
from xtadapt.model import Grammar
from xtadapt.parsing import parse_grammar, print_grammar
from xtadapt.transform import OpKind, apply_config


def test_pair_rules_mission():
    g1, g1prime = load_pair("mission")
    pairing = pair_rules(g1, g1prime)
    assert pairing.pairs == ("Mission",)
    assert pairing.unmatched_left == ()
    assert pairing.unmatched_right == ()


def test_pair_rules_set_difference():
    left = parse_grammar("A: 'a';\n\nB: 'b';")
    right = parse_grammar("B: 'b';\n\nC: 'c';")
    pairing = pair_rules(left, right)
    assert pairing.pairs == ("B",)
    assert pairing.unmatched_left == ("A",)
    assert pairing.unmatched_right == ("C",)


def test_pair_rules_empty():
    pairing = pair_rules(Grammar(), Grammar())
    assert pairing.pairs == ()
    assert pairing.unmatched_left == ()
    assert pairing.unmatched_right == ()


def test_extract_mission_config():
    g1, g1prime = load_pair("mission")
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 0
    kinds = {op.kind for op in result.config.entries}
    assert {
        OpKind.PROMOTE_ATTRIBUTE,
        OpKind.MAKE_BRACES_OPTIONAL,
        OpKind.ADD_TERMINATOR,
        OpKind.CHANGE_CALLED_RULE,
        OpKind.REMOVE_KEYWORD,
        OpKind.CHANGE_SEPARATOR,
        OpKind.REMOVE_BRACES,
    } <= kinds
    scopes = {
        (op.scope.feature, op.kind)
        for op in result.config.entries
        if op.scope.feature
    }
    assert ("shortName", OpKind.PROMOTE_ATTRIBUTE) in scopes
    assert ("uuid", OpKind.CHANGE_CALLED_RULE) in scopes
    assert ("name", OpKind.CHANGE_CALLED_RULE) in scopes
    assert ("ownedComment", OpKind.REMOVE_KEYWORD) in scopes


def test_extract_identity():
    grammar = load_grammar("mission_generated.xtext")
    result = extract_config(grammar, grammar)
    assert result.config.is_identity
    assert result.config.entries == ()
    assert result.fallback_count == 0


def test_extract_xgenerictype_falls_back():
    g1, g1prime = load_pair("xgenerictype")
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 1
    kinds = [op.kind for op in result.config.entries]
    assert kinds == [OpKind.REPLACE_RULE]


def test_extract_removed_rule_gets_remove_entry():
    left = parse_grammar("A: 'a';\n\nB: 'b';")
    right = parse_grammar("A: 'a';")
    result = extract_config(left, right)
    removes = [
        op
        for op in result.config.entries
        if op.kind is OpKind.REPLACE_RULE and op.param("remove")
    ]
    assert len(removes) == 1
    assert removes[0].scope.rule == "B"
    adapted, _ = apply_config(result.config, left)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(right)


def test_extract_added_rule_is_ignored():
    left = parse_grammar("A: 'a';")
    right = parse_grammar("A: 'a';\n\nNew: 'n';")
    result = extract_config(left, right)
    assert result.config.is_identity


def test_extract_is_deterministic():
    g1, g1prime = load_pair("dotstatements")
    first = extract_config(g1, g1prime)
    second = extract_config(g1, g1prime)
    assert first.config == second.config


def test_extract_removes_the_star_keyword_without_fallback():
    """``'*'`` is a keyword like any other, so its removal is a catalog op."""
    g1 = parse_grammar("Mul: 'mul' '*' x=ID;\n\nDiv: 'div' '*' y=ID;")
    g1prime = parse_grammar("Mul: 'mul' x=ID;\n\nDiv: 'div' y=ID;")
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 0
    assert [(op.kind, op.scope.rule, dict(op.params)) for op in result.config.entries] == [
        (OpKind.REMOVE_KEYWORD, "Mul", {"text": "*"}),
        (OpKind.REMOVE_KEYWORD, "Div", {"text": "*"}),
    ]
    assert apply_config(result.config, g1)[0] == g1prime


@pytest.mark.parametrize("name,expressible", PAIRS)
def test_round_trip_over_corpus(name, expressible):
    g1, g1prime = load_pair(name)
    result = extract_config(g1, g1prime)
    adapted, _ = apply_config(result.config, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)
    if expressible:
        assert result.fallback_count == 0, f"{name} should not need a fallback"
    else:
        assert result.fallback_count > 0


def test_fallback_count_matches_replace_entries():
    for name, g1, g1prime, _ in corpus_pairs():
        result = extract_config(g1, g1prime)
        replaces = sum(
            1 for op in result.config.entries if op.kind is OpKind.REPLACE_RULE
        )
        assert result.fallback_count == replaces, name


def test_infer_rule_ops_keeps_only_fallback_on_residual():
    g1, g1prime = load_pair("xtypeparameter")
    ops, fell_back = infer_rule_ops(g1.rules[0], g1prime.rules[0])
    assert fell_back
    assert [op.kind for op in ops] == [OpKind.REPLACE_RULE]


def test_returns_clause_change_falls_back():
    left = parse_grammar("A returns A: name=ID;")
    right = parse_grammar("A returns Base: name=ID;")
    result = extract_config(left, right)
    assert result.fallback_count == 1
    adapted, _ = apply_config(result.config, left)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(right)


def test_enum_grammar_survives_identity_replay():
    grammar = load_grammar("edgeop.xtext")
    result = extract_config(grammar, grammar)
    assert result.config.is_identity
    adapted, _ = apply_config(result.config, grammar)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(grammar)
    assert print_grammar(adapted).startswith("enum EdgeOp")


def test_enum_marker_change_falls_back():
    left = parse_grammar("Op: a='+' | b='-';")
    right = parse_grammar("enum Op: a='+' | b='-';")
    for g1, g1prime in ((left, right), (right, left)):
        result = extract_config(g1, g1prime)
        assert result.fallback_count == 1
        adapted, _ = apply_config(result.config, g1)
        assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)


def test_config_reuse_on_evolved_grammar():
    """The regeneration workflow: learn from the prior pair, replay on the
    grammar generated from the evolved metamodel."""
    g1, g1prime = load_pair("mission")
    g2 = load_grammar("mission_evolved.xtext")
    expected = load_grammar("mission_evolved_target.xtext")
    result = extract_config(g1, g1prime)
    adapted, report = apply_config(result.config, g2)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(expected)
    assert report.warnings == []


def test_config_reuse_warns_when_evolution_dropped_a_rule():
    g1, g1prime = load_pair("dotstatements")
    result = extract_config(g1, g1prime)
    # Metamodel evolution removed the Attribute metaclass.
    g2_text = "\n\n".join(
        part
        for part in read_fixture("dotstatements_generated.xtext").split("\n\n")
        if "Attribute" not in part
    )
    g2 = parse_grammar(g2_text)
    assert isinstance(g2, Grammar)
    adapted, report = apply_config(result.config, g2)
    assert report.warnings  # ops scoped to the dropped rule report NO_MATCH
    assert "Attribute" not in [r.name for r in adapted.rules]


# -- randomized mutants -----------------------------------------------------

_BASES = [f"{name}_generated.xtext" for name, _ in PAIRS]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_round_trip_on_random_mutants(data):
    base_name = data.draw(st.sampled_from(_BASES))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    base = load_grammar(base_name)
    mutation = random_mutation_pair(base, random.Random(seed))
    if mutation is None:
        return
    mutated, _ = mutation
    result = extract_config(base, mutated)
    adapted, _ = apply_config(result.config, base)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(mutated)


# -- counted work of the pair search ---------------------------------------------

#: The known-answer trio's rule pair: the attribute keyword goes.
_TRIO = ("R returns R: 'R' '{' ('a' a=ID)? '}';", "R returns R: 'R' '{' (a=ID)? '}';")


def _trio_rules():
    src, dst = (parse_grammar(text).rules[0] for text in _TRIO)
    return src, dst


def test_trio_search_makes_one_applier_call(monkeypatch):
    """The first trial reaches distance 0, so it is the only one."""
    calls = []
    for kind, applier in list(transform._APPLIERS.items()):

        def counted(*args, kind=kind, applier=applier):
            calls.append(kind)
            return applier(*args)

        monkeypatch.setitem(transform._APPLIERS, kind, counted)
    ops, fell_back = infer_rule_ops(*_trio_rules())
    assert not fell_back
    assert [op.kind for op in ops] == [OpKind.REMOVE_KEYWORD]
    assert calls == [OpKind.REMOVE_KEYWORD]


def test_trio_search_indexes_each_rule_state_once(monkeypatch):
    """The source and the target are indexed once each; the accepted state
    is at distance 0 and needs no index."""
    built = []
    build = transform.RuleIndex.__init__

    def counted(self, rule):
        built.append(rule)
        build(self, rule)

    monkeypatch.setattr(transform.RuleIndex, "__init__", counted)
    src, dst = _trio_rules()
    infer_rule_ops(src, dst)
    assert built == [src, dst]
