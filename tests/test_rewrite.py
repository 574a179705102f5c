"""The scoped appliers against the tree walkers they replaced.

``_ref_edit_children`` (bottom-up, editing child lists), ``_ref_rewrite_nodes``
(pre-order, replacing nodes), ``_ref_replace_at``, ``_ref_remove_at``,
``_ref_collapse`` and the nine ``_ref_apply_*`` appliers are the code that
the one ``_rewrite`` walker replaced, kept as references only; they resolve
scopes with ``_ref_feature_anchors``, the anchor walk that ``RuleIndex``
replaced, with its region rule ``_ref_is_region``.  ``_ref_rewrite`` is
``_rewrite`` visiting the whole body: every applier must give the same result when its walk descends only along the
scope's anchors as when it visits the whole body.
``_ref_apply_remove_keyword`` leaves out the old ``"*"`` wildcard branch:
``'*'`` is a literal keyword like any other now.  ``_ref_apply_add_terminator``
wraps a bare-assignment body with its terminator, as the applier now does;
it used to skip that body.

Three shapes come out differently on purpose, and the reference marks them
as it makes them (``_PINNED``, ``_SETTLED``):

- *emptied sibling*: a node that lost a child only because that child was
  emptied (``A: 'a' (b=ID ('x' 'x')?) c=ID;`` without ``'x'``) used to stay
  as it was, ``(b=ID)``; every node that loses a child is collapsed now.
- *separator remainder*: dropping the separator of ``(',' (a b))*`` used to
  leave ``((a b))*``, and of ``(',')*`` an empty group; the group that lost
  its separator is collapsed now, to ``(a b)*``, and removed when empty.
- *settled branch*: a rule body, or an alternative that changed, used to be
  left as a plain single-child group, such as ``(b=B)`` in ``'a' (b=B) | 'c'``
  without ``'a'``; it prints as its child and now is its child.

On a marked input the property expects the reference's result with the
marked nodes collapsed as the walker collapses them, and settled.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import partial
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import apply_single, assignments_of, corpus_grammars, load_grammar, random_mutation_pair
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
    brace_region,
    brace_span,
    children_of,
    is_brace,
    node_at,
    walk,
    with_children,
)
import xtadapt.transform as transform
from xtadapt.parsing import parse_grammar, print_grammar
from xtadapt.transform import (
    CATALOG,
    OpKind,
    RuleIndex,
    Scope,
    ScopeKind,
    TransformOp,
    _is_word,
    _sibling_of_anchor,
    attribute_scope,
    grammar_scope,
    rule_scope,
)

#: Nodes (by identity) and output paths where the reference left a shape
#: that the walker collapses; filled by the reference as it runs.  A node
#: that shares its children tuple with a pinned one is the pinned node with
#: its parent's marks moved onto it, and counts as pinned too.
_PINNED: list = []
#: Changed alternatives (by identity) that the reference left as plain
#: single-child groups, which the walker settles.
_SETTLED: list = []


def _settled(expr: Expression | None) -> Expression | None:
    """A plain single-child group's child, repeatedly."""
    while isinstance(expr, Group) and len(expr.children) == 1 and expr.plain:
        expr = expr.children[0]
    return expr


def _mark_branch(parent: Expression, child: Expression | None) -> None:
    """Mark ``child``, a changed child of ``parent``, if it is an alternative
    that the walker settles (settled branch)."""
    if isinstance(parent, Alternatives) and _settled(child) is not child:
        _SETTLED.append(child)


_MIXED = object()


def _ref_is_region(group: Group, feature: str, is_body: bool) -> bool:
    """Whether ``group``, all of whose assignments target ``feature``,
    belongs to that feature's region."""
    if is_body and any(
        isinstance(c, Keyword) and c.text != feature and _is_word(c.text)
        for c in group.children
    ):
        return False
    # Brace keywords belong to the region only in the generated
    # keyword-braces-content idiom, where the assignment sits right next to
    # them; a braces wrapper around a finished sub-group is rule structure,
    # not part of the attribute.
    return not any(is_brace(c) for c in group.children) or any(
        isinstance(c, Assignment) for c in group.children
    )


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
            and _ref_is_region(node, sole, path == ())
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
                new_kids.append(_settled(new) if m and isinstance(expr, Alternatives) else new)
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
                if m:
                    _mark_branch(expr, new_child)
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
            if m:
                _mark_branch(expr, nc)
        expr = with_children(expr, tuple(new_kids))
    return expr, matched


def _ref_replace_at(root: Expression, path: Path, new_node: Expression) -> Expression:
    if not path:
        return new_node
    kids = list(children_of(root))
    kids[path[0]] = _ref_replace_at(kids[path[0]], path[1:], new_node)
    _mark_branch(root, kids[path[0]])
    return with_children(root, tuple(kids))


def _ref_remove_at(body: Group, path: Path, remove: set[int]) -> Group:
    node = node_at(body, path)
    kids = tuple(c for i, c in enumerate(children_of(node)) if i not in remove)
    if not path:
        return with_children(node, kids)
    shrunk = _ref_collapse(with_children(node, kids), True)
    if shrunk is None:
        return _ref_remove_at(body, path[:-1], {path[-1]})
    return _ref_replace_at(body, path, shrunk)


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
            if not anchor:  # skipped before: the terminator joins the body
                body = Group(children=(node, Keyword(text=text)))
                matched += 1
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


def _ref_apply_promote_attribute(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    if op.scope.kind is not ScopeKind.ATTRIBUTE:
        return rule, 0
    feature = op.scope.feature or ""
    body = rule.body
    if not isinstance(body, Group):
        return rule, 0
    paths = [p for p, a in assignments_of(rule) if a.feature == feature]
    if not paths:
        return rule, 0
    first = paths[0]
    assignment = node_at(body, first)
    parent_path = first[:-1]
    kids = list(children_of(node_at(body, parent_path)))
    idx = first[-1]
    remove = {idx}
    if idx > 0 and isinstance(kids[idx - 1], Keyword) and not is_brace(kids[idx - 1]):
        remove.add(idx - 1)
    body = _ref_remove_at(body, parent_path, remove)
    if not children_of(body):
        return rule, 0
    # The promoted assignment joins the top-level sequence.  A marked body,
    # such as a braces wrapper, stays one element, collapsed as a child is,
    # and the assignment goes before it when it is the brace region.
    if not body.plain:
        body = _ref_collapse(body, True)
    sequence = body.children if body.plain else (body,)
    region = brace_region(body)
    insert_at = len(sequence) if region is None else region[0]
    promoted = replace(assignment, predicated=False)
    new_children = sequence[:insert_at] + (promoted,) + sequence[insert_at:]
    return replace(rule, body=Group(children=new_children)), 1


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
    OpKind.PROMOTE_ATTRIBUTE: _ref_apply_promote_attribute,
}


def _collapse_pinned(expr: Expression, path: Path, pinned: list) -> Expression | None:
    """The reference's result ``expr`` with every pinned node collapsed,
    every node that then loses a child collapsed in turn, and every settled
    branch, or alternative changed here, settled.  A settled branch that the
    reference left alone in its Alternatives took that node's marks, and
    shares its children with it; the walker settles the branch before it
    moves the marks (``_LIFTED_BRANCH``).  A pinned node whose non-plain
    parent the reference collapsed onto it is a marked copy that shares its
    children, and is collapsed as the node is (``_MARKED_COPY``)."""
    kids = children_of(expr)
    copied = bool(kids) and any(children_of(p) is kids for p in pinned)
    mark = copied or any(p is expr for p in pinned) or path in pinned
    settle = any(p is expr for p in _SETTLED)
    lifted = bool(kids) and not expr.plain and any(children_of(p) is kids for p in _SETTLED)
    if kids:
        rebuilt = [_collapse_pinned(c, path + (i,), pinned) for i, c in enumerate(kids)]
        if isinstance(expr, Alternatives):
            rebuilt = [c if c is old else _settled(c) for c, old in zip(rebuilt, kids)]
        kept = tuple(c for c in rebuilt if c is not None)
        mark = mark or len(kept) < len(kids)
        if any(c is not old for c, old in zip(rebuilt, kids)):
            expr = with_children(expr, kept)
    if lifted:
        alone = _settled(replace(expr, cardinality=Cardinality.ONE, predicated=False))
        marks = {"cardinality": expr.cardinality, "predicated": expr.predicated}
        expr, mark = Alternatives(branches=(alone,), **marks), True
    expr = _ref_collapse(expr, mark)
    return _settled(expr) if settle else expr


def _expected(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    """The reference's result with the pinned shapes as the walker makes
    them; a body that the reference leaves a plain single-child group is
    settled, and counts as a settled branch."""
    _PINNED.clear()
    _SETTLED.clear()
    expected, matched = _REFERENCE[op.kind](rule, op)
    if not matched:
        return expected, matched
    body = expected.body
    if _PINNED or _SETTLED:
        body = _collapse_pinned(body, (), list(_PINNED))
        if body is None:  # the separator was all the body held
            return rule, 0
    if _settled(body) is not body:
        _SETTLED.append(body)
        body = _settled(body)
    return replace(expected, body=body), matched


def _full_walk(rule: ParserRule, op: TransformOp) -> tuple[ParserRule, int]:
    """The applier's result with ``_rewrite`` visiting the whole body."""
    pruned = transform._rewrite
    transform._rewrite = _ref_rewrite
    try:
        return CATALOG[op.kind].apply(rule, op, RuleIndex(rule))
    finally:
        transform._rewrite = pruned


def _same_as_reference(rule: ParserRule, op: TransformOp) -> bool:
    """Assert the applier agrees with the reference, and its pruned walk
    with the full one; True on a pinned shape."""
    expected = _expected(rule, op)
    got = CATALOG[op.kind].apply(rule, op, RuleIndex(rule))
    assert got == expected, (op.describe(), rule)
    assert got == _full_walk(rule, op), (op.describe(), rule)
    return bool(_PINNED or _SETTLED)


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


def _drawn_op(kind: OpKind, rule: ParserRule, draw) -> TransformOp:
    """An op of ``kind`` whose keyword params are mostly texts ``rule`` holds."""
    present = sorted({n.text for _, n in walk(rule.body) if isinstance(n, Keyword)})
    text = draw(st.sampled_from(present or _TEXTS) | st.sampled_from(_TEXTS))
    params: dict[str, object] = {}
    if kind in (OpKind.REMOVE_KEYWORD, OpKind.ADD_TERMINATOR):
        params["text"] = text
    elif kind is OpKind.RENAME_KEYWORD:
        params.update({"from": text, "to": "new"})
    elif kind is OpKind.CHANGE_SEPARATOR:
        params.update({"from": text, "to": draw(st.sampled_from(["new", None]))})
    elif kind is OpKind.CHANGE_CALLED_RULE:
        params.update({"from": draw(st.sampled_from(_CALLS)), "to": "C"})
    return TransformOp(kind, draw(_SCOPE), params)


@st.composite
def _rule_and_entry(draw) -> tuple[ParserRule, TransformOp]:
    """A drawn rule and an op of a drawn ported kind: a ``_drawn_op``, or
    one of the rule's ``_ported_ops``."""
    rule = draw(_RULE)
    ops = _ported_ops(Grammar(rules=(rule,)))
    kind = draw(st.sampled_from(sorted(_REFERENCE, key=lambda k: k.value)))
    drawn = _drawn_op(kind, rule, draw)
    entry = draw(st.sampled_from(ops) | st.just(drawn)) if ops else drawn
    return rule, entry


#: ``R: 'k' (',') => ('k' | ('k' 'x' 'x'));`` whose second branch is a
#: plain group around the group ``'k' 'x' 'x'``: without ``'k'``, that branch
#: is left alone in its Alternatives and takes its predicate.
_K, _X = Keyword(text="k"), Keyword(text="x")
_LIFTED = Alternatives(branches=(_K, Group(children=(Group(children=(_K, _X, _X)),))), predicated=True)
_LIFTED_BRANCH = ParserRule("R", None, Group(children=(_K, Group(children=(Keyword(text=","),)), _LIFTED)))


#: ``R: => ('k' (('k') (x=A)));``, with the body a plain group around the
#: predicated one: without ``'k'``, the group ``(('k') (x=A))`` loses its
#: emptied first child (emptied sibling), and the predicated group, left
#: with it alone, moves its predicate onto a copy of it.
_XA = Group(children=(Assignment(feature="x", terminal=RuleCall(rule_name="A")),))
_SHARED = Group(children=(_K, Group(children=(Group(children=(_K,)), _XA))), predicated=True)
_MARKED_COPY = ParserRule("R", None, Group(children=(_SHARED,)))


@settings(max_examples=1500, deadline=None)
@given(case=_rule_and_entry())
@example(case=(_LIFTED_BRANCH, TransformOp(OpKind.REMOVE_KEYWORD, rule_scope("R"), {"text": "k"})))
@example(case=(_MARKED_COPY, TransformOp(OpKind.REMOVE_KEYWORD, rule_scope("R"), {"text": "k"})))
def test_drawn_rules_agree_with_the_reference(case):
    _same_as_reference(*case)


# -- the pinned shapes, by name -------------------------------------------------


def _applied(text: str, entry: TransformOp) -> str:
    grammar = parse_grammar(text)
    assert isinstance(grammar, Grammar)
    rule, matched = CATALOG[entry.kind].apply(grammar.rules[0], entry, RuleIndex(grammar.rules[0]))
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


def test_settled_branch_is_its_child():
    """A changed alternative or body that the reference leaves a plain
    single-child group is that group's child: ``(b=B)`` prints as ``b=B``,
    which parses back to the assignment."""
    remove = TransformOp(OpKind.REMOVE_KEYWORD, rule_scope("R"), {"text": "a"})
    assert _applied("R: 'a' (b=B) | 'c';", remove) == "R: b=B | 'c';"
    assert _same_as_reference(parse_grammar("R: 'a' (b=B) | 'c';").rules[0], remove)
    drawn = ParserRule("R", None, Group(children=(Keyword(text="k"),)))
    rename = TransformOp(OpKind.RENAME_KEYWORD, rule_scope("R"), {"from": "k", "to": "new"})
    assert CATALOG[rename.kind].apply(drawn, rename, RuleIndex(drawn)) == (
        ParserRule("R", None, Keyword(text="new")),
        1,
    )
    assert _same_as_reference(drawn, rename)


def test_terminator_joins_a_bare_assignment_body():
    entry = TransformOp(OpKind.ADD_TERMINATOR, attribute_scope("R", "x"), {"text": ";"})
    assert _applied("R: x=A;", entry) == "R: x=A ';';"
    assert not _same_as_reference(parse_grammar("R: x=A;").rules[0], entry)


def _promote(feature: str) -> TransformOp:
    return TransformOp(OpKind.PROMOTE_ATTRIBUTE, attribute_scope("R", feature), {"anchor": "BEFORE_BRACES"})


def test_promote_keeps_the_marks_of_the_rest_of_the_body():
    """The rest of the body keeps its ``?`` when it is all that is left
    besides the promoted assignment."""
    assert _applied("R: 'n' name=ID (a=A b=B)?;", _promote("name")) == "R: (a=A b=B)? name=ID;"
    assert not _same_as_reference(parse_grammar("R: 'n' name=ID (a=A b=B)?;").rules[0], _promote("name"))


def test_promote_that_empties_the_rest_of_the_body_matches_nothing():
    rule = parse_grammar("R: ('n' name=ID)?;").rules[0]
    promote = CATALOG[OpKind.PROMOTE_ATTRIBUTE].apply
    assert promote(rule, _promote("name"), RuleIndex(rule)) == (rule, 0)
    assert not _same_as_reference(rule, _promote("name"))


# -- the print/parse fixpoint ---------------------------------------------------

#: Small rules of mostly plain groups and choices, where a removal or a
#: dropped mark most often leaves a body or an alternative a single child.
_PLAINISH = {"cardinality": st.just(Cardinality.ONE) | _CARD, "predicated": st.just(False) | st.booleans()}
_SMALL_RULE = st.builds(
    lambda kids: ParserRule("R", None, Group(children=tuple(kids))),
    st.lists(
        st.recursive(
            _LEAF,
            lambda inner: st.builds(Group, children=st.lists(inner, min_size=1, max_size=2), **_PLAINISH)
            | st.builds(Alternatives, branches=st.lists(inner, min_size=2, max_size=2), **_PLAINISH),
            max_leaves=4,
        ),
        min_size=1,
        max_size=3,
    ),
)


def _reads_back(grammar: Grammar) -> bool:
    return parse_grammar(print_grammar(grammar)) == grammar


@settings(max_examples=600, deadline=None)
@given(rule=_RULE | _SMALL_RULE, data=st.data())
def test_drawn_bodies_stay_fixpoints_under_op_sequences(rule, data):
    """A drawn body, read back through print and parse, rewritten by one to
    three ops, each drawn from the ops of every kind that ``_ops_by_kind``
    derives from the rule and a ``_drawn_op`` of every ported kind: each
    result prints text that parses back to an equal grammar."""
    grammar = parse_grammar(print_grammar(Grammar(rules=(rule,))))
    assert _reads_back(grammar)
    for _ in range(data.draw(st.integers(1, 3))):
        ops = [entry for entries in _ops_by_kind(grammar).values() for entry in entries]
        ops += [_drawn_op(kind, grammar.rules[0], data.draw) for kind in sorted(_REFERENCE, key=lambda k: k.value)]
        entry = data.draw(st.sampled_from(ops))
        grammar, _ = apply_single(entry, grammar)
        assert _reads_back(grammar), entry.describe()
