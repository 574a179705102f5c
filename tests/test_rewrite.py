"""The scoped appliers against the tree walkers they replaced.

``_ref_edit_children`` (bottom-up, editing child lists), ``_ref_rewrite_nodes``
(pre-order, replacing nodes), ``_ref_collapse`` and the eight ``_ref_apply_*``
appliers are the code that the one ``_rewrite`` walker replaced, kept as
references only; they resolve scopes with ``_ref_feature_anchors``, the
anchor walk that ``RuleIndex`` replaced.  ``_ref_rewrite`` is ``_rewrite``
before it learned to prune: every applier must give the same result when
its walk descends only along the scope's anchors as when it visits the
whole body.  ``_ref_apply_remove_keyword`` leaves out the old ``"*"``
wildcard branch: ``'*'`` is a literal keyword like any other now.

Two shapes come out differently on purpose, and the reference marks them as
it makes them (``_PINNED``):

- *emptied sibling*: a node that lost a child only because that child was
  emptied (``A: 'a' (b=ID ('x' 'x')?) c=ID;`` without ``'x'``) used to stay
  as it was, ``(b=ID)``; every node that loses a child is collapsed now.
- *separator remainder*: dropping the separator of ``(',' (a b))*`` used to
  leave ``((a b))*``, and of ``(',')*`` an empty group; the group that lost
  its separator is collapsed now, to ``(a b)*``, and removed when empty.

On a marked input the property expects the reference's result with the
marked nodes collapsed as the walker collapses them.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import corpus_grammars, load_grammar, random_mutation_pair
from test_transform import _ops_by_kind
from xtadapt.model import (
    Alternatives,
    Assignment,
    Cardinality,
    CrossReference,
    Expression,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    Path,
    RuleCall,
    assignments_of,
    brace_span,
    children_of,
    node_at,
    walk,
    with_children,
)
import xtadapt.transform as transform
from xtadapt.parsing import parse_grammar, print_grammar
from xtadapt.transform import (
    _APPLIERS,
    OpKind,
    RuleIndex,
    Scope,
    ScopeKind,
    TransformOp,
    _is_region,
    _sibling_of_anchor,
    attribute_scope,
    grammar_scope,
    rule_scope,
)

#: Nodes (by identity) and output paths where the reference left a shape
#: that the walker collapses; filled by the reference as it runs.
_PINNED: list = []

_MIXED = object()


def _ref_feature_anchors(rule: ParserRule) -> dict[str, list[Path]]:
    found: list[list] = []

    def visit(node: Expression, path: Path) -> tuple[object, list[int]]:
        sole: object = None
        if isinstance(node, Assignment):
            sole, own = node.feature, [len(found)]
            found.append([node.feature, path])
        rising: list[int] = []
        for i, child in enumerate(children_of(node)):
            if not isinstance(child, (Assignment, Group, Alternatives)):
                continue
            child_sole, child_rising = visit(child, path + (i,))
            if child_sole is not None and child_sole != sole:
                sole = child_sole if sole is None else _MIXED
            rising += child_rising
        if isinstance(node, Assignment):
            return sole, own
        if (
            isinstance(node, Group)
            and rising
            and sole is not _MIXED
            and _is_region(node, sole, path == ())
        ):
            for i in rising:
                found[i][1] = path
            return sole, rising
        return sole, []

    visit(rule.body, ())
    anchors: dict[str, list[Path]] = {}
    for feature, anchor in found:
        seen = anchors.setdefault(feature, [])
        if anchor not in seen:
            seen.append(anchor)
    return anchors


def _ref_scope_anchor_paths(rule: ParserRule, scope: Scope) -> list[Path]:
    if scope.kind is ScopeKind.ATTRIBUTE:
        return _ref_feature_anchors(rule).get(scope.feature or "", [])
    return [()]


def _ref_path_within(path: Path, anchors) -> bool:
    return any(path[: len(a)] == a for a in anchors)


def _ref_rewrite(expr: Expression, path: Path, fn, reach=None) -> tuple[Expression | None, int]:
    """``_rewrite`` visiting every node; ``inside`` is read from the anchors
    (the paths ``reach`` maps to True) for each node."""
    anchors = [()] if reach is None else [p for p, full in reach.items() if full]
    matched = 0
    kids = children_of(expr)
    if kids:
        new_kids = []
        for i, child in enumerate(kids):
            new, m = _ref_rewrite(child, path + (i,), fn, reach)
            matched += m
            if new is not None:
                new_kids.append(new)
        if matched:
            expr = with_children(expr, tuple(new_kids))
    new, m = fn(expr, path, _ref_path_within(path, anchors))
    if m:
        if new is None:
            return None, matched + m
        expr, matched = new, matched + m
    return _ref_collapse(expr, len(children_of(expr)) < len(kids)), matched


def _ref_collapse(expr: Expression, shrunk: bool) -> Expression | None:
    if not shrunk or not isinstance(expr, (Group, Alternatives)):
        return expr
    kids = children_of(expr)
    if not kids:
        return None
    if len(kids) == 1:
        only = kids[0]
        if expr.plain:
            return only
        marks = {"cardinality": expr.cardinality, "predicated": expr.predicated}
        if isinstance(only, (Group, Alternatives)) and only.plain:
            return replace(only, **marks)
        if isinstance(expr, Alternatives):
            return Group(children=kids, **marks)
    return expr


def _ref_edit_children(expr: Expression, path: Path, editor) -> tuple[Expression | None, int]:
    matched = 0
    kids = children_of(expr)
    if kids:
        new_kids: list[Expression] = []
        for i, child in enumerate(kids):
            new_child, m = _ref_edit_children(child, path + (i,), editor)
            matched += m
            if new_child is not None:
                new_kids.append(new_child)
        expr = with_children(expr, tuple(new_kids))
        if isinstance(expr, (Group, Alternatives)):
            edited, m = editor(expr, path)
            matched += m
            if edited is not None:
                shrunk = len(edited) < len(children_of(expr))
                expr = with_children(expr, tuple(edited))
                collapsed = _ref_collapse(expr, shrunk)
                return collapsed, matched
            if not children_of(expr):
                return None, matched
            if len(new_kids) < len(kids) and _ref_collapse(expr, True) != expr:
                _PINNED.append(expr)  # emptied sibling
    return expr, matched


def _ref_rewrite_nodes(expr: Expression, path: Path, fn) -> tuple[Expression, int]:
    matched = 0
    new = fn(expr, path)
    if new is not None:
        expr = new
        matched += 1
    kids = children_of(expr)
    if kids:
        new_kids = []
        for i, child in enumerate(kids):
            nc, m = _ref_rewrite_nodes(child, path + (i,), fn)
            new_kids.append(nc)
            matched += m
        expr = with_children(expr, tuple(new_kids))
    return expr, matched


def _ref_replace_at(root: Expression, path: Path, new_node: Expression) -> Expression:
    if not path:
        return new_node
    kids = list(children_of(root))
    kids[path[0]] = _ref_replace_at(kids[path[0]], path[1:], new_node)
    return with_children(root, tuple(kids))


def _ref_apply_remove_keyword(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    text = op.param("text")
    anchors = _ref_scope_anchor_paths(rule, op.scope)

    def removable(kw: Keyword, path: Path) -> bool:
        if not (_ref_path_within(path, anchors) or _sibling_of_anchor(path, anchors)):
            return False
        return kw.text == text

    def editor(node: Expression, path: Path):
        kids = children_of(node)
        kept = [
            c
            for i, c in enumerate(kids)
            if not (isinstance(c, Keyword) and removable(c, path + (i,)))
        ]
        if len(kept) == len(kids):
            return None, 0
        return kept, len(kids) - len(kept)

    body, matched = _ref_edit_children(rule.body, (), editor)
    if body is None or matched == 0:
        return rule, 0
    return replace(rule, body=body), matched


def _ref_apply_rename_keyword(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    old, new = str(op.param("from")), str(op.param("to"))
    anchors = _ref_scope_anchor_paths(rule, op.scope)

    def fn(node: Expression, path: Path):
        if (
            isinstance(node, Keyword)
            and node.text == old
            and (_ref_path_within(path, anchors) or _sibling_of_anchor(path, anchors))
        ):
            return replace(node, text=new)
        return None

    body, matched = _ref_rewrite_nodes(rule.body, (), fn)
    return (replace(rule, body=body), matched) if matched else (rule, 0)


def _ref_apply_remove_braces(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    anchors = _ref_scope_anchor_paths(rule, op.scope)

    def editor(node: Expression, path: Path):
        if not isinstance(node, Group):
            return None, 0
        kids = children_of(node)
        if not _ref_path_within(path, anchors):
            return None, 0
        span = brace_span(kids)
        if span is None:
            return None, 0
        lo, hi = span
        kept = [c for i, c in enumerate(kids) if i not in (lo, hi)]
        return kept, 1

    body, matched = _ref_edit_children(rule.body, (), editor)
    if body is None or matched == 0:
        return rule, 0
    return replace(rule, body=body), matched


def _ref_apply_set_optionality(
    rule: ParserRule, op: TransformOp, target: Cardinality, source: Cardinality
) -> tuple[ParserRule, int]:
    anchors = _ref_scope_anchor_paths(rule, op.scope)
    matched = 0
    body = rule.body
    for anchor in anchors:
        node = node_at(body, anchor)
        if node.cardinality is source:
            body = _ref_replace_at(body, anchor, replace(node, cardinality=target))
            matched += 1
    return (replace(rule, body=body), matched) if matched else (rule, 0)


def _ref_apply_change_separator(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    old = str(op.param("from"))
    new = op.param("to")
    anchors = _ref_scope_anchor_paths(rule, op.scope)

    def fn(node: Expression, path: Path):
        if (
            isinstance(node, Group)
            and node.cardinality in (Cardinality.STAR, Cardinality.PLUS)
            and node.children
            and isinstance(node.children[0], Keyword)
            and node.children[0].text == old
            and _ref_path_within(path, anchors)
        ):
            sep = node.children[0]
            if new is None:
                dropped = replace(node, children=node.children[1:])
                if _ref_collapse(dropped, True) != dropped:
                    _PINNED.append(path)  # separator remainder
                return dropped
            return replace(
                node, children=(replace(sep, text=str(new)),) + node.children[1:]
            )
        return None

    body, matched = _ref_rewrite_nodes(rule.body, (), fn)
    return (replace(rule, body=body), matched) if matched else (rule, 0)


def _ref_apply_add_terminator(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    text = str(op.param("text"))
    if op.scope.kind is not ScopeKind.ATTRIBUTE:
        return rule, 0
    feature = op.scope.feature or ""
    anchors = _ref_feature_anchors(rule).get(feature, [])
    matched = 0
    body = rule.body
    for anchor in reversed(anchors):
        node = node_at(body, anchor)
        if isinstance(node, Group):
            idx = None
            for i, child in enumerate(node.children):
                if isinstance(child, Assignment) and child.feature == feature:
                    idx = i
            if idx is None:
                continue
            kids = node.children[: idx + 1] + (Keyword(text=text),) + node.children[idx + 1 :]
            body = _ref_replace_at(body, anchor, replace(node, children=kids))
            matched += 1
        elif isinstance(node, Assignment):
            if not anchor:
                continue
            parent_path = anchor[:-1]
            parent = node_at(body, parent_path)
            if isinstance(parent, Alternatives):
                body = _ref_replace_at(body, anchor, Group(children=(node, Keyword(text=text))))
            else:
                kids = list(children_of(parent))
                kids.insert(anchor[-1] + 1, Keyword(text=text))
                body = _ref_replace_at(body, parent_path, with_children(parent, tuple(kids)))
            matched += 1
    return (replace(rule, body=body), matched) if matched else (rule, 0)


def _ref_apply_change_called_rule(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    old, new = str(op.param("from")), str(op.param("to"))
    anchors = _ref_scope_anchor_paths(rule, op.scope)

    def fn(node: Expression, path: Path):
        if (
            isinstance(node, Assignment)
            and isinstance(node.terminal, RuleCall)
            and node.terminal.rule_name == old
            and _ref_path_within(path, anchors)
        ):
            return replace(node, terminal=replace(node.terminal, rule_name=new))
        return None

    body, matched = _ref_rewrite_nodes(rule.body, (), fn)
    return (replace(rule, body=body), matched) if matched else (rule, 0)


_REFERENCE = {
    OpKind.REMOVE_KEYWORD: _ref_apply_remove_keyword,
    OpKind.RENAME_KEYWORD: _ref_apply_rename_keyword,
    OpKind.REMOVE_BRACES: _ref_apply_remove_braces,
    OpKind.REMOVE_OPTIONALITY: partial(
        _ref_apply_set_optionality, target=Cardinality.ONE, source=Cardinality.OPTIONAL
    ),
    OpKind.ADD_OPTIONALITY: partial(
        _ref_apply_set_optionality, target=Cardinality.OPTIONAL, source=Cardinality.ONE
    ),
    OpKind.CHANGE_SEPARATOR: _ref_apply_change_separator,
    OpKind.ADD_TERMINATOR: _ref_apply_add_terminator,
    OpKind.CHANGE_CALLED_RULE: _ref_apply_change_called_rule,
}


def _collapse_pinned(expr: Expression, path: Path, pinned: list) -> Expression | None:
    """The reference's result ``expr`` with every pinned node collapsed, and
    every node that then loses a child collapsed in turn."""
    mark = any(p is expr for p in pinned) or path in pinned
    kids = children_of(expr)
    if kids:
        rebuilt = [_collapse_pinned(c, path + (i,), pinned) for i, c in enumerate(kids)]
        kept = tuple(c for c in rebuilt if c is not None)
        mark = mark or len(kept) < len(kids)
        expr = with_children(expr, kept)
    return _ref_collapse(expr, mark)


def _expected(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    _PINNED.clear()
    expected, matched = _REFERENCE[op.kind](rule, op)
    if _PINNED:
        body = _collapse_pinned(expected.body, (), list(_PINNED))
        if body is None:  # the separator was all the body held
            return rule, 0
        expected = replace(expected, body=body)
    return expected, matched


def _full_walk(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    """The applier's result with ``_rewrite`` visiting the whole body."""
    pruned = transform._rewrite
    transform._rewrite = _ref_rewrite
    try:
        return _APPLIERS[op.kind](rule, op, RuleIndex(rule))
    finally:
        transform._rewrite = pruned


def _same_as_reference(rule: ParserRule, op: TransformOp) -> bool:
    """Assert the applier agrees with the reference, and its pruned walk
    with the full one; True on a pinned shape."""
    expected = _expected(rule, op)
    got = _APPLIERS[op.kind](rule, op, RuleIndex(rule))
    assert got == expected, (op.describe(), rule)
    assert got == _full_walk(rule, op), (op.describe(), rule)
    return bool(_PINNED)


def _ported_ops(grammar: Grammar) -> list[TransformOp]:
    """The ported ops of ``_ops_by_kind``, plus an ATTRIBUTE-scoped keyword
    removal and rename per feature and keyword text of each rule."""
    ops = [entry for ops in _ops_by_kind(grammar).values() for entry in ops if entry.kind in _REFERENCE]
    for rule in grammar.rules:
        texts = sorted({n.text for _, n in walk(rule.body) if isinstance(n, Keyword)})
        for feature in sorted({a.feature for _, a in assignments_of(rule)}):
            scope = attribute_scope(rule.name, feature)
            for text in texts:
                ops.append(TransformOp(OpKind.REMOVE_KEYWORD, scope, {"text": text}))
                ops.append(TransformOp(OpKind.RENAME_KEYWORD, scope, {"from": text, "to": "new"}))
    return ops


_FIXTURE_GRAMMARS = [grammar for _, grammar in corpus_grammars()] + [
    load_grammar("mission_evolved.xtext"),
    load_grammar("mission_evolved_target.xtext"),
]


def test_fixture_rules_agree_with_the_reference():
    """Every ported op that ``_ops_by_kind`` derives from a fixture grammar,
    on every rule of that grammar."""
    kinds = set()
    for grammar in _FIXTURE_GRAMMARS:
        for entry in _ported_ops(grammar):
            kinds.add(entry.kind)
            for rule in grammar.rules:
                _same_as_reference(rule, entry)
    assert kinds == set(_REFERENCE)


@settings(max_examples=300, deadline=None)
@given(base=st.sampled_from(_FIXTURE_GRAMMARS), seed=st.integers(0, 10**6), data=st.data())
def test_corpus_mutants_agree_with_the_reference(base, seed, data):
    mutation = random_mutation_pair(base, random.Random(seed))
    grammar = base if mutation is None else mutation[0]
    entry = data.draw(st.sampled_from(_ported_ops(grammar)))
    for rule in grammar.rules:
        _same_as_reference(rule, entry)


# -- drawn model values ---------------------------------------------------------

_TEXTS = ["k", "x", ",", ";", "{", "}", "*"]
_CALLS = ["A", "B", "ID"]
_CARD = st.sampled_from(list(Cardinality))
_MARKS = {"cardinality": _CARD, "predicated": st.booleans()}

_KEYWORD = st.builds(Keyword, text=st.sampled_from(_TEXTS), **_MARKS)
_ASSIGNMENT = st.one_of(
    st.builds(
        Assignment,
        feature=st.sampled_from(["x", "y"]),
        operator=st.sampled_from(["=", "+="]),
        terminal=st.sampled_from(
            [RuleCall(rule_name=n) for n in _CALLS] + [CrossReference(type_name="T", terminal_name="ID")]
        ),
        **_MARKS,
    ),
    st.builds(
        Assignment,
        feature=st.sampled_from(["x", "y"]),
        operator=st.just("?="),
        terminal=st.builds(Keyword, text=st.sampled_from(_TEXTS)),
        **_MARKS,
    ),
)
_LEAF = _KEYWORD | _ASSIGNMENT | st.builds(RuleCall, rule_name=st.sampled_from(_CALLS))
_NODE = st.recursive(
    _LEAF,
    lambda inner: st.builds(Group, children=st.lists(inner, min_size=1, max_size=4), **_MARKS)
    | st.builds(Alternatives, branches=st.lists(inner, min_size=2, max_size=3), **_MARKS),
    max_leaves=12,
)
_RULE = st.builds(
    lambda kids: ParserRule("R", None, Group(children=tuple(kids))),
    st.lists(_NODE, min_size=1, max_size=5),
)
_SCOPE = st.sampled_from(
    [grammar_scope(), rule_scope("R")] + [attribute_scope("R", f) for f in ("x", "y", "z")]
)


def _drawn_op(kind: OpKind, rule: ParserRule, data) -> TransformOp:
    """An op of ``kind`` whose keyword params are mostly texts ``rule`` holds."""
    present = sorted({n.text for _, n in walk(rule.body) if isinstance(n, Keyword)})
    text = data.draw(st.sampled_from(present or _TEXTS) | st.sampled_from(_TEXTS))
    params: dict[str, object] = {}
    if kind in (OpKind.REMOVE_KEYWORD, OpKind.ADD_TERMINATOR):
        params["text"] = text
    elif kind is OpKind.RENAME_KEYWORD:
        params.update({"from": text, "to": "new"})
    elif kind is OpKind.CHANGE_SEPARATOR:
        params.update({"from": text, "to": data.draw(st.sampled_from(["new", None]))})
    elif kind is OpKind.CHANGE_CALLED_RULE:
        params.update({"from": data.draw(st.sampled_from(_CALLS)), "to": "C"})
    return TransformOp(kind, data.draw(_SCOPE), params)


@settings(max_examples=1500, deadline=None)
@given(rule=_RULE, data=st.data())
def test_drawn_rules_agree_with_the_reference(rule, data):
    ops = _ported_ops(Grammar(rules=(rule,)))
    kind = data.draw(st.sampled_from(sorted(_REFERENCE, key=lambda k: k.value)))
    drawn = _drawn_op(kind, rule, data)
    entry = data.draw(st.sampled_from(ops) | st.just(drawn)) if ops else drawn
    _same_as_reference(rule, entry)


# -- the pinned shapes, by name -------------------------------------------------


def _applied(text: str, entry: TransformOp) -> str:
    grammar = parse_grammar(text)
    assert isinstance(grammar, Grammar)
    rule, matched = _APPLIERS[entry.kind](grammar.rules[0], entry, RuleIndex(grammar.rules[0]))
    assert matched
    adapted = Grammar(rules=(rule,))
    printed = print_grammar(adapted)
    assert parse_grammar(printed) == adapted
    return " ".join(printed.split())


def test_emptied_sibling_is_collapsed():
    """The group that loses its emptied ``('x' 'x')?`` child collapses to its
    one remaining child; the reference left ``(b=ID)``."""
    text = "A: 'a' (b=ID ('x' 'x')?) c=ID;"
    remove = TransformOp(OpKind.REMOVE_KEYWORD, rule_scope("A"), {"text": "x"})
    assert _applied(text, remove) == "A: 'a' b=ID c=ID;"
    assert _same_as_reference(parse_grammar(text).rules[0], remove)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("A: 'a' (',' (x+=ID y+=ID))*;", "A: 'a' (x+=ID y+=ID)*;"),
        ("A: 'a' (',' (x+=ID | y+=ID))*;", "A: 'a' (x+=ID | y+=ID)*;"),
        ("A: 'a' (',')* x=ID;", "A: 'a' x=ID;"),
    ],
)
def test_separator_remainder_is_collapsed(text, expected):
    """Dropping the separator collapses what is left of its group; the
    reference left ``((x+=ID y+=ID))*``, which does not re-parse to itself,
    and an empty group, which does not print."""
    drop = TransformOp(OpKind.CHANGE_SEPARATOR, rule_scope("A"), {"from": ",", "to": None})
    assert _applied(text, drop) == expected
    assert _same_as_reference(parse_grammar(text).rules[0], drop)
