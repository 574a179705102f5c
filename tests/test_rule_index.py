"""``RuleIndex`` against the per-rule helpers it replaced.

``_ref_paths`` (each feature's paths from ``assignments_of``),
``_ref_keyword_texts``, ``_ref_separators``, ``_ref_leading_keyword`` and
``_ref_braces`` are the extractor's rule facts before the index, and
``_ref_feature_anchors`` (in ``test_rewrite``) is the anchor walk; they are
kept as references only.  Dict facts are compared with their key order,
which decides the order of the extractor's candidates.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import assignments_of, random_mutation_pair
from test_rewrite import _FIXTURE_GRAMMARS, _NODE, _RULE, _ref_feature_anchors
from xtadapt.model import (
    Assignment,
    Cardinality,
    Group,
    Keyword,
    ParserRule,
    Path,
    is_brace,
    walk,
)
from xtadapt.transform import RuleIndex, _brace_region


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
    return rule.body.children if isinstance(rule.body, Group) else (rule.body,)


def _ref_leading_keyword(rule: ParserRule) -> str | None:
    for child in _body_children(rule):
        if isinstance(child, Keyword):
            return None if is_brace(child) else child.text
        if isinstance(child, (Assignment, Group)):
            return None
    return None


def _ref_braces(rule: ParserRule) -> tuple[int, bool] | None:
    return _brace_region(_body_children(rule))


def _assert_indexed(rule: ParserRule) -> None:
    index = RuleIndex(rule)
    assert list(index.paths.items()) == list(_ref_paths(rule).items()), rule
    assert list(index.anchors.items()) == list(_ref_feature_anchors(rule).items()), rule
    assert index.keywords == _ref_keyword_texts(rule), rule
    assert index.separators == _ref_separators(rule), rule
    assert index.braces == _ref_braces(rule), rule
    assert index.leading == _ref_leading_keyword(rule), rule


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


@settings(max_examples=1000, deadline=None)
@given(rule=_RULE | st.builds(lambda body: ParserRule("R", None, body), _NODE))
def test_drawn_rules_index_like_the_reference(rule):
    """Drawn bodies include bare leaves and a top-level Alternatives."""
    _assert_indexed(rule)
