import random
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    FIXTURES,
    PAIRS,
    _mutation_candidates,
    apply_single,
    corpus_grammars,
    corpus_pairs,
    grammar_body_tokens,
    load_grammar,
    load_pair,
    random_mutation_pair,
    read_fixture,
)
from test_rewrite import _FIXTURE_GRAMMARS, _RULE
import xtadapt.extract as extract
import xtadapt.transform as transform
from xtadapt.extract import ExtractionError, extract_config, infer_rule_ops
from xtadapt.model import Grammar, ParserRule
from xtadapt.parsing import parse_grammar, print_grammar, print_rule, rule_signature
from xtadapt.transform import (
    OpKind,
    TransformationConfig,
    TransformError,
    TransformOp,
    apply_config,
    attribute_scope,
    rule_scope,
)


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


def test_extract_adds_a_terminator_to_a_bare_assignment_body():
    result = extract_config(parse_grammar("R: x=A;"), parse_grammar("R: x=A ';';"))
    assert [entry.describe() for entry in result.config.entries] == ["ADD_TERMINATOR(text=';') @ attribute R.x"]
    assert result.fallback_count == 0


def test_terminators_after_generated_attributes_replay_on_an_evolved_rule():
    """A ``;`` after each keyword-per-attribute pair inside the braces is two
    ADD_TERMINATOR ops, not a fallback, so replaying them on the rule of an
    evolved metamodel keeps the attribute that the evolution added."""
    g1 = parse_grammar("Mission: 'Mission' '{' 'uuid' uuid=UUID 'name' name=ID '}';")
    g1prime = parse_grammar("Mission: 'Mission' '{' 'uuid' uuid=UUID ';' 'name' name=ID ';' '}';")
    g2 = parse_grammar("Mission: 'Mission' '{' 'uuid' uuid=UUID 'name' name=ID 'extra' extra=ID '}';")
    result = extract_config(g1, g1prime)
    assert [entry.describe() for entry in result.config.entries] == [
        "ADD_TERMINATOR(text=';') @ attribute Mission.uuid",
        "ADD_TERMINATOR(text=';') @ attribute Mission.name",
    ]
    assert result.fallback_count == 0
    adapted, report = apply_config(result.config, g2)
    expected = parse_grammar("Mission: 'Mission' '{' 'uuid' uuid=UUID ';' 'name' name=ID ';' 'extra' extra=ID '}';")
    assert grammar_body_tokens(adapted) == grammar_body_tokens(expected)
    assert report.warnings == []


def test_a_braces_wrapper_body_extracts_without_fallback():
    """MAKE_BRACES_OPTIONAL and then the leading keyword's removal settle
    the body to the optional braces wrapper.  Its rule-level brace region
    reads wrapped, so extract writes both ops, not a fallback, and their
    replay on an evolved rule keeps the attribute that the evolution added."""
    g1 = load_grammar("requirement_generated.xtext")
    scope = rule_scope("Requirement")
    ops = (
        TransformOp(OpKind.MAKE_BRACES_OPTIONAL, scope),
        TransformOp(OpKind.REMOVE_KEYWORD, scope, {"text": "Requirement"}),
    )
    g1prime, _ = apply_config(TransformationConfig(ops), g1)
    assert print_rule(g1prime.rules[0]).startswith("Requirement returns Requirement:\n    ('{'")
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 0
    assert result.config.entries == ops
    adapted, _ = apply_config(result.config, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)
    g2 = parse_grammar(
        "Requirement: 'Requirement' '{' ('id' id=ID)? ('text' text=STRING)? ('extra' extra=ID)? '}';"
    )
    adapted, report = apply_config(result.config, g2)
    expected = parse_grammar("Requirement: ('{' ('id' id=ID)? ('text' text=STRING)? ('extra' extra=ID)? '}')?;")
    assert adapted == expected
    assert report.warnings == []


def _add_terminator(rule: ParserRule, feature: str, text: str) -> tuple[ParserRule, int]:
    op = TransformOp(OpKind.ADD_TERMINATOR, attribute_scope(rule.name, feature), {"text": text})
    return transform.CATALOG[op.kind].apply(rule, op, transform.RuleIndex(rule))


def _reads_back_terminator(rule: ParserRule, feature: str, text: str) -> bool:
    """Whether ADD_TERMINATOR(text) matches ``feature`` of ``rule``; when it
    does, extract must read ``text`` as a terminator of the result."""
    applied, matched = _add_terminator(rule, feature, text)
    if matched:
        assert text in extract._terminators(applied, transform.RuleIndex(applied), feature), (rule, feature)
    return bool(matched)


def test_fixture_terminators_are_read_where_they_are_added():
    cases = [
        (rule, feature, text)
        for grammar in _FIXTURE_GRAMMARS
        for rule in grammar.rules
        for feature in transform.RuleIndex(rule).paths
        for text in (";", "end")
    ]
    assert sum(_reads_back_terminator(*case) for case in cases) == 156


#: ``x``'s first anchor, the group ``('k' ('j' x=A)?)``, holds no slot of
#: its own; its second, ``x=B``, does.
_SLOTLESS_FIRST_ANCHOR = parse_grammar("R: ('k' ('j' x=A)?) y=C x=B;").rules[0]


@settings(max_examples=500, deadline=None)
@given(rule=_RULE, feature=st.sampled_from(["x", "y"]), text=st.sampled_from([";", "end"]))
@example(rule=_SLOTLESS_FIRST_ANCHOR, feature="x", text=";")
def test_drawn_terminators_are_read_where_they_are_added(rule, feature, text):
    _reads_back_terminator(rule, feature, text)


def test_a_terminator_added_to_any_fixture_rule_needs_no_fallback():
    """ADD_TERMINATOR(';') on each fixture rule's first indexed feature is
    extracted as catalog ops, wherever the op matches."""
    matched = 0
    for path in sorted(FIXTURES.glob("*.xtext")):
        for rule in load_grammar(path.name).rules:
            features = list(transform.RuleIndex(rule).paths)
            if not features:
                continue
            applied, m = _add_terminator(rule, features[0], ";")
            if m:
                matched += 1
                result = extract_config(Grammar(rules=(rule,)), Grammar(rules=(applied,)))
                assert result.fallback_count == 0, rule.name
    assert matched == 35


#: The single-op pairs that still fall back: ADD_TERMINATOR where the
#: terminator is already there, so that extract reads the same terminators
#: on both sides.
_SINGLE_OP_FALLBACKS = [
    ("mission_target", "ADD_TERMINATOR(text=';') @ attribute Mission.category"),
    ("mission_target", "ADD_TERMINATOR(text=';') @ attribute Mission.uuid"),
    ("mission_target", "ADD_TERMINATOR(text=';') @ attribute Mission.name"),
    ("vehiclefeature_target",
     "ADD_TERMINATOR(text=';') @ attribute VehicleFeature.isDesignVariabilityRationale"),
    ("vehiclefeature_target", "ADD_TERMINATOR(text=';') @ attribute VehicleFeature.name"),
]


def test_single_catalog_ops_on_the_corpus_are_read_back():
    """For every corpus grammar and every mutation op that changes it,
    extract finds catalog ops for the edit, except in the listed pairs, and
    the round trip holds."""
    pairs, fallbacks = 0, []
    for name, grammar in corpus_grammars():
        for op in _mutation_candidates(grammar):
            mutated, matched = apply_single(op, grammar)
            if not matched or mutated == grammar:
                continue
            pairs += 1
            result = extract_config(grammar, mutated)
            if result.fallback_count:
                fallbacks.append((name, op.describe()))
            adapted, _ = apply_config(result.config, grammar)
            assert grammar_body_tokens(adapted) == grammar_body_tokens(mutated), (name, op)
    assert pairs == 378
    assert fallbacks == _SINGLE_OP_FALLBACKS


#: (G1, G1', G2, expected G2', the one entry extracted) per rename shape:
#: the attribute's own keyword terminal, a non-leading keyword that several
#: attributes share, and an enum literal.
_RENAMES = {
    "keyword-terminal": (
        "A: 'A' name=ID (unique?='unique')?;",
        "A: 'A' name=ID (unique?='isUnique')?;",
        "A: 'A' name=ID (unique?='unique')? ('extra' extra=ID)?;",
        "A: 'A' name=ID (unique?='isUnique')? ('extra' extra=ID)?;",
        "RENAME_KEYWORD(from='unique', to='isUnique') @ attribute A.unique",
    ),
    "across-attributes": (
        "M: 'M' '{' ('a' a=ID ';')? ('b' b=ID ';')? '}';",
        "M: 'M' '{' ('a' a=ID 'extends')? ('b' b=ID 'extends')? '}';",
        "M: 'M' '{' ('a' a=ID ';')? ('b' b=ID ';')? ('extra' extra=ID ';')? '}';",
        "M: 'M' '{' ('a' a=ID 'extends')? ('b' b=ID 'extends')? ('extra' extra=ID 'extends')? '}';",
        "RENAME_KEYWORD(from=';', to='extends') @ rule M",
    ),
    "enum-literal": (
        "enum E: directed='->' | undirected='--';",
        "enum E: directed='=>' | undirected='--';",
        "enum E: directed='->' | undirected='--' | extra='<>';",
        "enum E: directed='=>' | undirected='--' | extra='<>';",
        "RENAME_KEYWORD(from='->', to='=>') @ attribute E.directed",
    ),
}


@pytest.mark.parametrize("shape", _RENAMES)
def test_a_renamed_keyword_replays_on_an_evolved_rule(shape):
    """A keyword rename is one catalog op, not a fallback, so its replay
    keeps what the evolution added, without a warning."""
    *texts, entry = _RENAMES[shape]
    g1, g1prime, g2, expected = (parse_grammar(text) for text in texts)
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 0
    assert [op.describe() for op in result.config.entries] == [entry]
    adapted, report = apply_config(result.config, g2)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(expected)
    assert report.warnings == []


def test_a_changed_separator_stays_a_separator_change():
    """The separator ``','`` -> ``';'`` is a keyword only one side has, but
    repetition separators are CHANGE_SEPARATOR's, not a rule rename's."""
    g1, g1prime = load_pair("nodelist")
    result = extract_config(g1, g1prime)
    assert [entry.describe() for entry in result.config.entries] == [
        "CHANGE_SEPARATOR(from=',', to=';') @ attribute NodeList.nodes"
    ]


def test_a_new_separator_is_not_paired_with_a_renamed_keyword():
    """The target's new separator comes first in pre-order among its own
    keywords; excluding it leaves ``'done'`` to pair with ``'end'``."""
    g1 = parse_grammar("NodeList: 'NodeList' '{' ('nodes' nodes+=Node (',' nodes+=Node)*)? '}' 'end';")
    g1prime = parse_grammar("NodeList: 'NodeList' '{' ('nodes' nodes+=Node (';' nodes+=Node)*)? '}' 'done';")
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 0
    assert [entry.describe() for entry in result.config.entries] == [
        "RENAME_KEYWORD(from='end', to='done') @ rule NodeList",
        "CHANGE_SEPARATOR(from=',', to=';') @ attribute NodeList.nodes",
    ]


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


def test_round_trip_needs_phase_order():
    """Optionality goes before the keyword: in the reverse phase order, the
    keyword's removal leaves the group ``(category=Identifier)`` in Mission."""
    g1 = load_grammar("mission_generated.xtext")
    scope = attribute_scope("Mission", "category")
    ops = (
        TransformOp(OpKind.REMOVE_OPTIONALITY, scope),
        TransformOp(OpKind.REMOVE_KEYWORD, scope, {"text": "category"}),
    )
    g1prime, _ = apply_config(TransformationConfig(ops), g1)
    result = extract_config(g1, g1prime)
    assert result.config.entries == ops
    adapted, _ = apply_config(result.config, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)


def test_fallback_count_matches_replace_entries():
    for name, g1, g1prime, _ in corpus_pairs():
        result = extract_config(g1, g1prime)
        replaces = sum(
            1 for op in result.config.entries if op.kind is OpKind.REPLACE_RULE
        )
        assert result.fallback_count == replaces, name


def test_infer_rule_ops_keeps_only_fallback_on_residual():
    g1, g1prime = load_pair("xtypeparameter")
    src, dst = g1.rules[0], g1prime.rules[0]
    ops, fell_back = infer_rule_ops(src, dst, rule_signature(src), rule_signature(dst))
    assert fell_back
    assert [op.kind for op in ops] == [OpKind.REPLACE_RULE]


def test_search_falls_back_when_phase_order_disagrees_with_acceptance_order():
    """The greedy loop accepts ADD_TERMINATOR before REMOVE_KEYWORD; in phase
    order the two ops give another rule, so the search must fall back."""
    g1 = parse_grammar("Comment returns Comment: 'Comment' '{' ('body' body=String0)? '}';")
    g1prime = parse_grammar("Comment returns Comment: 'extends' '{' (body=String0 ';') '}';")
    result = extract_config(g1, g1prime)
    assert result.fallback_count == 1
    assert [op.kind for op in result.config.entries] == [OpKind.REPLACE_RULE]
    adapted, _ = apply_config(result.config, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)


def test_search_returns_its_ops_in_phase_order_when_their_replay_agrees(monkeypatch):
    """ADD_OPTIONALITY lowers the distance only once the braces and the
    keyword are gone, so the greedy loop accepts it in its second pass, after
    ops of later phases; the phase-order replay reproduces G1', so the search
    returns the ops in phase order.  The replay builds indexes as apply
    does: only for an ATTRIBUTE-scoped op, once per rule state."""
    tries = []
    spec = transform.CATALOG[OpKind.ADD_OPTIONALITY]

    def counted(*args, applier=spec.apply):
        tries.append(args[1])
        return applier(*args)

    built = []
    build = transform.RuleIndex.__init__

    def counted_build(self, rule):
        built.append(rule)
        build(self, rule)

    monkeypatch.setitem(transform.CATALOG, OpKind.ADD_OPTIONALITY, replace(spec, apply=counted))
    monkeypatch.setattr(transform.RuleIndex, "__init__", counted_build)
    g1 = parse_grammar("Label returns Label: 'Label' '{' ('value' value=String0) '}';")
    g1prime = parse_grammar("Label returns Label: 'Label' (value=String0)?;")
    result = extract_config(g1, g1prime)
    assert [op.describe() for op in result.config.entries] == [
        "ADD_OPTIONALITY() @ attribute Label.value",
        "REMOVE_BRACES() @ rule Label",
        "REMOVE_KEYWORD(text='value') @ attribute Label.value",
    ]
    assert result.fallback_count == 0
    # Tried and turned down in the first pass, accepted in the second, and
    # applied once more by the replay.
    assert len(tries) == 3
    # The search indexes the source, the target and the two accepted states
    # short of distance 0; the replay builds one before each ATTRIBUTE-scoped
    # op (ADD_OPTIONALITY, REMOVE_KEYWORD) and none before the RULE-scoped
    # REMOVE_BRACES.
    assert len(built) == 6
    adapted, _ = apply_config(result.config, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)


def test_fallback_body_that_does_not_parse_raises(monkeypatch):
    monkeypatch.setattr(extract, "render_body_inline", lambda body: "name=ID (")
    left = parse_grammar("A returns A: name=ID;")
    right = parse_grammar("A returns Base: name=ID;")
    with pytest.raises(TransformError, match=r"@ rule A: body does not parse"):
        extract_config(left, right)


def test_fallback_body_that_parses_to_another_rule_raises(monkeypatch):
    monkeypatch.setattr(extract, "render_body_inline", lambda body: "other=ID")
    left = parse_grammar("A returns A: name=ID;")
    right = parse_grammar("A returns Base: name=ID;")
    with pytest.raises(ExtractionError, match=r"^extracted config does not replay rule 'A'$"):
        extract_config(left, right)


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
    """The trio's source and target rules and their signatures."""
    src, dst = (parse_grammar(text).rules[0] for text in _TRIO)
    return src, dst, rule_signature(src), rule_signature(dst)


def test_trio_search_makes_one_applier_call(monkeypatch):
    """The first trial reaches distance 0, so it is the only one."""
    calls = []
    for kind, spec in list(transform.CATALOG.items()):

        def counted(*args, kind=kind, applier=spec.apply):
            calls.append(kind)
            return applier(*args)

        monkeypatch.setitem(transform.CATALOG, kind, replace(spec, apply=counted))
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
    src, dst, src_sig, dst_sig = _trio_rules()
    infer_rule_ops(src, dst, src_sig, dst_sig)
    assert built == [src, dst]
