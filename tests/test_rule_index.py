"""``RuleIndex`` against the per-rule helpers it replaced.

``_ref_paths`` (each feature's paths from ``assignments_of``),
``_ref_keyword_texts``, ``_ref_separators``, ``_ref_leading_keyword`` and
``_ref_braces`` are the extractor's rule facts before the index,
``_ref_feature_context`` is its walk of each shared feature's anchor region
(with the terminators read at ADD_TERMINATOR's slots, written out),
and ``_ref_feature_anchors`` (in ``test_rewrite``) is the anchor walk;
they are kept as references only.  Dict facts are compared with their key
order, which decides the order of the extractor's candidates.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import assignments_of, random_mutation_pair
from test_rewrite import _CARD, _FIXTURE_GRAMMARS, _NODE, _RULE, _ref_feature_anchors
from xtadapt.extract import _before_braces, _terminators
from xtadapt.model import (
    Assignment,
    Cardinality,
    Group,
    Keyword,
    ParserRule,
    Path,
    RuleCall,
    brace_span,
    children_of,
    is_brace,
    is_braced,
    node_at,
    walk,
)
from xtadapt.transform import RuleIndex


def _ref_paths(rule: ParserRule) -> dict[str, list[Path]]:
    paths: dict[str, list[Path]] = {}
    for path, assignment in assignments_of(rule):
        paths.setdefault(assignment.feature, []).append(path)
    return paths


def _ref_keyword_texts(rule: ParserRule) -> list[str]:
    return [n.text for _, n in walk(rule.body) if isinstance(n, Keyword) and not is_brace(n)]


def _ref_separators(rule: ParserRule) -> set[str]:
    return {
        n.children[0].text
        for _, n in walk(rule.body)
        if isinstance(n, Group)
        and n.cardinality in (Cardinality.STAR, Cardinality.PLUS)
        and n.children
        and isinstance(n.children[0], Keyword)
    }


def _body_children(rule: ParserRule):
    """The body's top-level sequence: a braces wrapper body is one element."""
    body = rule.body
    plain = isinstance(body, Group) and body.cardinality is Cardinality.ONE and not body.predicated
    return body.children if plain else (body,)


def _ref_leading_keyword(rule: ParserRule) -> str | None:
    for child in _body_children(rule):
        if isinstance(child, Keyword):
            return None if is_brace(child) else child.text
        if isinstance(child, (Assignment, Group)):
            return None
    return None


def _ref_braces(rule: ParserRule) -> tuple[int, bool] | None:
    children = _body_children(rule)
    span = brace_span(children)
    for i, child in enumerate(children):
        if span is not None and i == span[0]:
            return i, False
        if is_braced(child):
            return i, True
    return None


def _ref_feature_context(rule: ParserRule, index: RuleIndex, feature: str) -> dict:
    paths = index.paths[feature]
    anchor_node = node_at(rule.body, index.anchors[feature][0])

    first = paths[0]
    parent = node_at(rule.body, first[:-1]) if first else rule.body
    siblings = children_of(parent) if first else (rule.body,)
    idx = first[-1] if first else 0

    keyword_before: str | None = None
    for j in range(idx - 1, -1, -1):
        sib = siblings[j]
        if is_brace(sib):
            continue
        if isinstance(sib, Keyword):
            keyword_before = sib.text
        break
    if keyword_before == rule.name:
        # The rule's own leading keyword, not an attribute keyword.
        keyword_before = None

    region_nodes = [n for _, n in walk(anchor_node)]
    has_braces = any(is_brace(n) for n in region_nodes)
    separator = None
    has_repetition = False
    for n in region_nodes:
        if isinstance(n, Group) and n.cardinality in (Cardinality.STAR, Cardinality.PLUS):
            has_repetition = True
            if n.children and isinstance(n.children[0], Keyword):
                separator = n.children[0].text
            break

    # A terminator is the non-brace keyword right after a slot where
    # ADD_TERMINATOR puts one: in a group anchor after the feature's last
    # assignment among its children, and after a bare anchor whose parent
    # is a group.  Slots are read per holding group, in anchor order, and
    # by ascending index within a group.
    slots: dict[Path, set[int]] = {}
    for anchor in index.anchors[feature]:
        node = node_at(rule.body, anchor)
        if isinstance(node, Group):
            own = [
                i for i, c in enumerate(node.children)
                if isinstance(c, Assignment) and c.feature == feature
            ]
            if own:
                slots.setdefault(anchor, set()).add(own[-1])
        elif anchor and isinstance(node_at(rule.body, anchor[:-1]), Group):
            slots.setdefault(anchor[:-1], set()).add(anchor[-1])
    terminators: list[str] = []
    for holder, ends in slots.items():
        kids = node_at(rule.body, holder).children
        for i in sorted(ends):
            nxt = kids[i + 1] if i + 1 < len(kids) else None
            if isinstance(nxt, Keyword) and not is_brace(nxt):
                terminators.append(nxt.text)

    calls: list[str | None] = []
    for p in paths:
        a = node_at(rule.body, p)
        assert isinstance(a, Assignment)
        calls.append(a.terminal.rule_name if isinstance(a.terminal, RuleCall) else None)

    before_braces = True
    if index.braces is not None and first:
        before_braces = first[0] < index.braces[0]
    return dict(
        keyword_before=keyword_before,
        has_braces=has_braces,
        cardinality=anchor_node.cardinality,
        separator=separator,
        has_repetition=has_repetition,
        terminators=tuple(terminators),
        terminal_calls=tuple(calls),
        before_braces=before_braces,
    )


def _feature_facts(rule: ParserRule, index: RuleIndex, feature: str) -> dict:
    """What ``extract._candidates`` compares of ``feature``, read as it
    reads it: from the index, its first anchor's cardinality and the
    terminators at ADD_TERMINATOR's slots."""
    anchor = index.anchors[feature][0]
    node = node_at(rule.body, anchor)
    return dict(
        keyword_before=index.keyword_before[feature],
        has_braces=anchor in index.braced,
        cardinality=node.cardinality,
        separator=index.repeats.get(anchor),
        has_repetition=anchor in index.repeats,
        terminators=tuple(_terminators(rule, index, feature)),
        terminal_calls=tuple(index.calls[feature]),
        before_braces=_before_braces(index, feature),
    )


def _assert_indexed(rule: ParserRule) -> None:
    index = RuleIndex(rule)
    assert list(index.paths.items()) == list(_ref_paths(rule).items()), rule
    assert list(index.anchors.items()) == list(_ref_feature_anchors(rule).items()), rule
    assert index.keywords == _ref_keyword_texts(rule), rule
    assert index.separators == _ref_separators(rule), rule
    assert index.braces == _ref_braces(rule), rule
    assert index.leading == _ref_leading_keyword(rule), rule
    assert list(index.keyword_before) == list(index.calls) == list(index.paths), rule
    for feature in index.paths:
        expected = _ref_feature_context(rule, index, feature)
        assert _feature_facts(rule, index, feature) == expected, (feature, rule)


def test_fixture_rules_index_like_the_reference():
    for grammar in _FIXTURE_GRAMMARS:
        for rule in grammar.rules:
            _assert_indexed(rule)


@settings(max_examples=200, deadline=None)
@given(base=st.sampled_from(_FIXTURE_GRAMMARS), seed=st.integers(0, 10**6))
def test_corpus_mutants_index_like_the_reference(base, seed):
    mutation = random_mutation_pair(base, random.Random(seed))
    grammar = base if mutation is None else mutation[0]
    for rule in grammar.rules:
        _assert_indexed(rule)


#: An assignment whose terminal carries a cardinality, a shape the parser
#: never makes (it marks the assignment).
_MARKED_TERMINAL = st.builds(
    Assignment,
    feature=st.sampled_from(["x", "y"]),
    terminal=st.builds(RuleCall, rule_name=st.just("A"), cardinality=_CARD)
    | st.builds(Keyword, text=st.sampled_from(["k", "{"]), cardinality=_CARD),
    cardinality=_CARD,
)


@settings(max_examples=1000, deadline=None)
@given(
    rule=_RULE
    | st.builds(lambda body: ParserRule("R", None, body), _NODE | _MARKED_TERMINAL)
    | st.builds(
        lambda kids: ParserRule("R", None, Group(children=tuple(kids))),
        st.lists(_NODE | _MARKED_TERMINAL, min_size=1, max_size=4),
    )
)
def test_drawn_rules_index_like_the_reference(rule):
    """Drawn bodies include bare leaves, a top-level Alternatives and
    assignments whose terminal carries a cardinality."""
    _assert_indexed(rule)
