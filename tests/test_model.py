import copy
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import assignments_of, find_rule, load_grammar, load_pair
from xtadapt.model import (
    Alternatives,
    Assignment,
    Cardinality,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    RuleCall,
    brace_span,
    grammar_problems,
    is_brace,
    is_braced,
    node_at,
    walk,
)
from xtadapt.evaluate import evaluate
from xtadapt.extract import extract_config
from xtadapt.parsing import _is_braced_group, parse_grammar
from xtadapt.transform import CATALOG, _brace_region, apply_config


@pytest.fixture(scope="module")
def mission():
    return load_grammar("mission_generated.xtext")


@pytest.fixture(scope="module")
def port():
    return load_grammar("port_target.xtext")


def test_find_rule_mission(mission):
    rule = find_rule(mission, "Mission")
    assert rule is not None
    assert rule.name == "Mission"
    assert rule.returns_type == "Mission"


def test_find_rule_empty_grammar():
    assert find_rule(Grammar(), "X") is None


def test_find_rule_direct_lookup():
    a = ParserRule("A", None, Keyword(text="a"))
    b = ParserRule("B", None, Keyword(text="b"))
    grammar = Grammar(rules=(a, b))
    assert find_rule(grammar, "B") is b


def test_assignments_of_mission(mission):
    rule = find_rule(mission, "Mission")
    assignments = assignments_of(rule)
    # Both textual occurrences of ownedComment are listed, so the repetition
    # shape contributes two entries over five distinct features.
    features = [a.feature for _, a in assignments]
    assert features == ["shortName", "category", "uuid", "name", "ownedComment", "ownedComment"]
    assert len(set(features)) == 5


def test_assignments_of_keyword_only_rule():
    rule = ParserRule("X", None, Keyword(text="x"))
    assert assignments_of(rule) == []


def test_assignments_of_port(port):
    rule = find_rule(port, "Port")
    features = [a.feature for _, a in assignments_of(rule)]
    assert features == ["compass_pt", "name", "name", "compass_pt"]


def test_paths_resolve_back_to_same_node(mission):
    rule = find_rule(mission, "Mission")
    for path, assignment in assignments_of(rule):
        assert node_at(rule.body, path) is assignment


def test_walk_visits_each_node_once(mission):
    rule = find_rule(mission, "Mission")
    paths = [p for p, _ in walk(rule.body)]
    assert len(paths) == len(set(paths))


def test_attributes_survive_untargeted_rewrite():
    inner = Assignment(feature="name", operator="=", terminal=RuleCall(rule_name="ID"))
    group = Group(
        children=(Keyword(text="x"), inner),
        cardinality=Cardinality.OPTIONAL,
        predicated=True,
    )
    rebuilt = replace(group, children=tuple(group.children))
    assert rebuilt.cardinality is Cardinality.OPTIONAL
    assert rebuilt.predicated is True
    assert rebuilt == group


def test_structural_equality_is_whitespace_independent(mission):
    other = load_grammar("mission_generated.xtext")
    assert mission == other


def test_group_and_alternatives_turn_a_list_into_a_tuple():
    kids = [Keyword(text="a"), Keyword(text="b")]
    group, alternatives = Group(children=kids), Alternatives(branches=kids)
    assert type(group.children) is tuple and type(alternatives.branches) is tuple
    assert group == Group(children=tuple(kids))
    assert alternatives == Alternatives(branches=tuple(kids))
    assert hash(group) == hash(Group(children=tuple(kids)))
    children = tuple(kids)
    assert Group(children=children).children is children


def test_grammar_problems_flags_duplicates_and_empty_groups():
    rule_a = ParserRule("A", None, Keyword(text="a"))
    dup = Grammar(rules=(rule_a, rule_a))
    assert any("duplicate rule name" in p for p in grammar_problems(dup))
    bad = Grammar(rules=(ParserRule("B", None, Group(children=())),))
    assert any("empty group" in p for p in grammar_problems(bad))


def test_grammar_problems_empty_for_corpus(mission):
    assert grammar_problems(mission) == []


# -- brace region -------------------------------------------------------------
# The four brace-region helpers that brace_span replaced, kept as references.


def _ref_matching_brace_span(children):
    depth = 0
    open_idx = -1
    for i, child in enumerate(children):
        if isinstance(child, Keyword) and child.text == "{":
            if depth == 0:
                open_idx = i
            depth += 1
        elif isinstance(child, Keyword) and child.text == "}":
            depth -= 1
            if depth == 0 and open_idx >= 0:
                return open_idx, i
    return None


def _ref_is_braced_group(expr):
    return (
        isinstance(expr, Group)
        and not expr.predicated
        and len(expr.children) >= 2
        and isinstance(expr.children[0], Keyword)
        and expr.children[0].text == "{"
        and isinstance(expr.children[-1], Keyword)
        and expr.children[-1].text == "}"
    )


def _ref_body_brace_info(children):
    for i, child in enumerate(children):
        if isinstance(child, Keyword) and child.text == "{":
            return "bare", i
        if (
            isinstance(child, Group)
            and len(child.children) >= 2
            and isinstance(child.children[0], Keyword)
            and child.children[0].text == "{"
            and isinstance(child.children[-1], Keyword)
            and child.children[-1].text == "}"
        ):
            return "wrapped", i
    return None


def _ref_promote_insert_at(children):
    for i, child in enumerate(children):
        if isinstance(child, Keyword) and child.text == "{":
            return i
        if isinstance(child, Group) and _ref_matching_brace_span(child.children) is not None:
            return i
    return len(children)


def _balanced(children):
    """Every brace keyword closes one opened before it, and all close."""
    depth = 0
    for child in children:
        if is_brace(child):
            depth += 1 if child.text == "{" else -1
            if depth < 0:
                return False
    return depth == 0


def _opens_and_closes_with_braces(group):
    kids = group.children
    return len(kids) >= 2 and is_brace(kids[0]) and kids[0].text == "{" and is_brace(kids[-1]) and kids[-1].text == "}"


def _first_brace_closes_early(group):
    """The divergent shape ``('{' a '}' '{' b '}')``: a group that opens with
    '{' and closes with '}' whose first '{' is not closed by the last '}'."""
    return _opens_and_closes_with_braces(group) and not _balanced(group.children[1:-1])


_BRACE_LEAF = st.sampled_from(
    [Keyword(text="{"), Keyword(text="}"), Keyword(text="a"), RuleCall(rule_name="ID"), Assignment(feature="x")]
)
_BRACE_GROUP = st.builds(
    lambda kids, card, pred: Group(children=tuple(kids), cardinality=card, predicated=pred),
    st.lists(_BRACE_LEAF, max_size=6),
    st.sampled_from(list(Cardinality)),
    st.booleans(),
)


@settings(max_examples=500, deadline=None)
@given(children=st.lists(_BRACE_LEAF | _BRACE_GROUP, max_size=8).map(tuple))
def test_brace_span_agrees_with_the_four_old_helpers(children):
    """brace_span is the old matching-pair scan everywhere.  The braced-group
    test, the rule-level region and promote's insertion point agree with
    their old helpers except on the divergent shapes: a group whose first
    '{' the last '}' does not close, braces that do not balance among the
    rule's children, and (promote only) a group holding braces that it does
    not open and close with."""
    assert brace_span(children) == _ref_matching_brace_span(children)
    groups = [c for c in children if isinstance(c, Group)]
    for group in groups:
        assert brace_span(group.children) == _ref_matching_brace_span(group.children)
        if not _first_brace_closes_early(group):
            assert _is_braced_group(group) == _ref_is_braced_group(group)
    if not _balanced(children) or any(_first_brace_closes_early(g) for g in groups):
        return
    region = _brace_region(children)
    old = _ref_body_brace_info(children)
    assert region == (None if old is None else (old[1], old[0] == "wrapped"))
    if any(any(map(is_brace, g.children)) and not _opens_and_closes_with_braces(g) for g in groups):
        return
    assert (len(children) if region is None else region[0]) == _ref_promote_insert_at(children)


def test_group_with_two_brace_pairs_is_not_braced():
    """The answer pinned on the divergent shape ``('{' a '}' '{' b '}')``:
    its brace region is the first pair only, so it is not a braced group,
    and no rule-level brace region."""
    a, b = RuleCall(rule_name="a"), RuleCall(rule_name="b")
    group = Group(children=(Keyword(text="{"), a, Keyword(text="}"), Keyword(text="{"), b, Keyword(text="}")))
    assert brace_span(group.children) == (0, 2)
    assert not is_braced(group)
    assert not _is_braced_group(group)
    assert _brace_region((Keyword(text="k"), group)) is None


def test_is_braced_is_the_one_braced_group_test():
    """A predicate does not unbrace a group; only the printer's layout test
    also asks for no predicate.  A braces wrapper is a rule's brace region."""
    lb, rb, a = Keyword(text="{"), Keyword(text="}"), RuleCall(rule_name="a")
    braced = Group(children=(lb, a, rb), cardinality=Cardinality.OPTIONAL)
    assert is_braced(braced) and _is_braced_group(braced)
    predicated = replace(braced, predicated=True)
    assert is_braced(predicated) and not _is_braced_group(predicated)
    assert not is_braced(Group(children=(lb, a, rb, a)))
    assert not is_braced(Group(children=()))
    assert not is_braced(lb)
    assert _brace_region((Keyword(text="k"), braced)) == (1, True)


# -- slotted values -------------------------------------------------------------


def _slotted(value) -> bool:
    return not hasattr(value, "__dict__")


def test_parsed_grammar_values_have_no_dict(mission):
    assert _slotted(mission)
    assert mission.declared_terminals or mission.rules
    for terminal in mission.declared_terminals:
        assert _slotted(terminal)
    for rule in mission.rules:
        assert _slotted(rule)
        for _, node in walk(rule.body):
            assert _slotted(node), type(node).__name__


def test_op_and_report_values_have_no_dict():
    result = extract_config(*load_pair("mission"))
    g2 = load_grammar("mission_evolved.xtext")
    _, applied = apply_config(result.config, g2)
    target = load_grammar("mission_evolved_target.xtext")
    report = evaluate(g2, target, target)
    assert result.config.entries and applied.outcomes and report.comparisons and report.per_type
    values = [result, result.config, applied, report, *CATALOG.values()]
    values += [v for op in result.config.entries for v in (op, op.scope)]
    values += applied.outcomes + report.comparisons + list(report.per_type.values())
    for value in values:
        assert _slotted(value), type(value).__name__


def test_parsed_grammar_survives_pickle_and_deepcopy(mission):
    assert pickle.loads(pickle.dumps(mission)) == mission
    assert copy.deepcopy(mission) == mission


def test_one_parse_shares_equal_names():
    """Equal names within one parse are one string; compare nodes by value all the same."""
    grammar = parse_grammar("A: 'a' name=ID;\nB: 'b' name=STRING;\n")
    assert isinstance(grammar, Grammar)
    (_, first), (_, second) = (assignments_of(rule)[0] for rule in grammar.rules)
    assert first.feature == second.feature == "name"
    assert first.feature is second.feature
