"""Scoped rewriting operations on grammars and ordered configs of them.

A TransformationConfig is an ordered list of scoped operations.  Application
first buckets entries into a fixed phase order (structural moves before
textual edits) and then applies them in listed order within each phase, which
makes the result independent of how entries were discovered or listed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Mapping

from .model import (
    Alternatives,
    Assignment,
    Cardinality,
    Expression,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    Path,
    RuleCall,
    brace_span,
    children_of,
    grammar_problems,
    is_brace,
    node_at,
    with_children,
)
from .parsing import parse_rule_body, printable_keyword, printable_name


class TransformError(Exception):
    """Invalid config content or an engine-level invariant violation."""


class ScopeKind(Enum):
    GRAMMAR = "GRAMMAR"
    RULE = "RULE"
    ATTRIBUTE = "ATTRIBUTE"


class OpKind(Enum):
    REMOVE_KEYWORD = "REMOVE_KEYWORD"
    REMOVE_BRACES = "REMOVE_BRACES"
    REMOVE_OPTIONALITY = "REMOVE_OPTIONALITY"
    ADD_OPTIONALITY = "ADD_OPTIONALITY"
    CHANGE_SEPARATOR = "CHANGE_SEPARATOR"
    ADD_TERMINATOR = "ADD_TERMINATOR"
    RENAME_KEYWORD = "RENAME_KEYWORD"
    CHANGE_CALLED_RULE = "CHANGE_CALLED_RULE"
    PROMOTE_ATTRIBUTE = "PROMOTE_ATTRIBUTE"
    MAKE_BRACES_OPTIONAL = "MAKE_BRACES_OPTIONAL"
    REPLACE_RULE = "REPLACE_RULE"


#: Canonical application order: wholesale replacement, then structural moves,
#: then optionality, brace removal, keyword edits, separators/terminators and
#: finally called-rule rewrites.  Entries keep their listed order per phase.
PHASE_OF: dict[OpKind, int] = {
    OpKind.REPLACE_RULE: 1,
    OpKind.PROMOTE_ATTRIBUTE: 2,
    OpKind.MAKE_BRACES_OPTIONAL: 3,
    OpKind.ADD_OPTIONALITY: 3,
    OpKind.REMOVE_OPTIONALITY: 3,
    OpKind.REMOVE_BRACES: 4,
    OpKind.REMOVE_KEYWORD: 5,
    OpKind.RENAME_KEYWORD: 5,
    OpKind.CHANGE_SEPARATOR: 6,
    OpKind.ADD_TERMINATOR: 6,
    OpKind.CHANGE_CALLED_RULE: 7,
}

@dataclass(frozen=True)
class Scope:
    kind: ScopeKind
    rule: str | None = None
    feature: str | None = None

    def __str__(self) -> str:
        if self.kind is ScopeKind.GRAMMAR:
            return "grammar"
        if self.kind is ScopeKind.RULE:
            return f"rule {self.rule}"
        return f"attribute {self.rule}.{self.feature}"


def grammar_scope() -> Scope:
    return Scope(ScopeKind.GRAMMAR)


def rule_scope(rule: str) -> Scope:
    return Scope(ScopeKind.RULE, rule=rule)


def attribute_scope(rule: str, feature: str) -> Scope:
    return Scope(ScopeKind.ATTRIBUTE, rule=rule, feature=feature)


@dataclass(frozen=True)
class TransformOp:
    kind: OpKind
    scope: Scope
    params: Mapping[str, object] = field(default_factory=dict)

    def param(self, name: str, default: object = None) -> object:
        return self.params.get(name, default)

    def describe(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.kind.value}({params}) @ {self.scope}"


@dataclass(frozen=True)
class TransformationConfig:
    entries: tuple[TransformOp, ...] = ()
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def is_identity(self) -> bool:
        return not self.entries


@dataclass
class OpOutcome:
    op: TransformOp
    matched: int

    @property
    def no_match(self) -> bool:
        return self.matched == 0


@dataclass
class ApplyReport:
    outcomes: list[OpOutcome] = field(default_factory=list)

    @property
    def warnings(self) -> list[str]:
        return [
            f"NO_MATCH: {o.op.describe()} matched nothing"
            for o in self.outcomes
            if o.no_match
        ]


# ---------------------------------------------------------------------------
# Scope resolution
# ---------------------------------------------------------------------------


#: Sole-feature marker of a subtree whose assignments target several features.
_MIXED = object()


class RuleIndex:
    """What scope resolution and the extractor read of one rule state, from
    one bottom-up walk of its body: each feature's assignment ``paths`` and
    region ``anchors`` (keyed in order of first assignment), the non-brace
    ``keywords`` in pre-order, the ``separators`` opening ``*``/``+`` groups,
    the body's ``braces`` region and the ``leading`` keyword, if any.

    A feature's anchor, per assignment, is the highest enclosing Group all
    of whose assignments target the feature (the repetition/optionality
    wrapper), else the assignment itself.  The body root only qualifies
    without a foreign keyword: ``'Label' '{' ('value' value=X) '}'``
    anchors at the wrapper group, not at the whole body."""

    __slots__ = ("paths", "anchors", "keywords", "separators", "braces", "leading")

    def __init__(self, rule: ParserRule):
        found: list[list] = []  # [feature, path, anchor] per assignment, in pre-order
        keywords: list[str] = []
        separators: set[str] = set()

        def visit(node: Expression, path: Path) -> tuple[object, list[int]]:
            """The one feature below ``node`` (None if none, _MIXED if
            several) and the assignments whose anchor may still rise above
            ``node``."""
            sole: object = None
            if isinstance(node, Assignment):
                sole, own = node.feature, [len(found)]
                found.append([node.feature, path, path])
                kids: tuple[Expression, ...] = (node.terminal,)
            elif isinstance(node, Group):
                kids = node.children
                if (
                    node.cardinality in (Cardinality.STAR, Cardinality.PLUS)
                    and kids
                    and isinstance(kids[0], Keyword)
                ):
                    separators.add(kids[0].text)
            else:
                kids = node.branches
            rising: list[int] = []
            for i, child in enumerate(kids):
                if isinstance(child, Keyword):
                    if not is_brace(child):
                        keywords.append(child.text)
                    continue
                if not isinstance(child, (Assignment, Group, Alternatives)):
                    continue  # a leaf holds no assignment
                child_sole, child_rising = visit(child, path + (i,))
                if child_sole is not None and child_sole != sole:
                    sole = child_sole if sole is None else _MIXED
                rising += child_rising
            if isinstance(node, Assignment):
                return sole, own  # what its terminal holds stops there
            if (
                isinstance(node, Group)
                and rising
                and sole is not _MIXED
                and _is_region(node, sole, path == ())
            ):
                for i in rising:
                    found[i][2] = path
                return sole, rising
            return sole, []

        body = rule.body
        if isinstance(body, (Assignment, Group, Alternatives)):
            visit(body, ())
        elif isinstance(body, Keyword) and not is_brace(body):
            keywords.append(body.text)
        self.paths: dict[str, list[Path]] = {}
        self.anchors: dict[str, list[Path]] = {}
        for feature, path, anchor in found:
            self.paths.setdefault(feature, []).append(path)
            seen = self.anchors.setdefault(feature, [])
            if anchor not in seen:
                seen.append(anchor)
        self.keywords = keywords
        self.separators = separators
        children = body.children if isinstance(body, Group) else (body,)
        self.braces = _brace_region(children)
        self.leading: str | None = None
        for child in children:
            if isinstance(child, Keyword):
                self.leading = None if is_brace(child) else child.text
            if isinstance(child, (Keyword, Assignment, Group)):
                break


def _is_region(group: Group, feature: str, is_body: bool) -> bool:
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


def _is_word(text: str) -> bool:
    return bool(text) and (text[0].isalpha() or text[0] == "_")


def _scope_anchors(op: TransformOp, index: RuleIndex | None) -> list[Path]:
    """An ATTRIBUTE scope's region anchors, read from the index, else the body root."""
    if op.scope.kind is ScopeKind.ATTRIBUTE:
        assert index is not None
        return index.anchors.get(op.scope.feature or "", [])
    return [()]


# ---------------------------------------------------------------------------
# Tree editing helpers
# ---------------------------------------------------------------------------


def _collapse(expr: Expression) -> Expression | None:
    """Drop an emptied node and unwrap a plain singleton after removals.

    A singleton that keeps a cardinality or predicate takes the shape its
    printed form re-parses to: the marks move onto a sole plain group, and a
    single-branch Alternatives turns into a Group.
    """
    if not isinstance(expr, (Group, Alternatives)):
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
            return replace(only, **marks)  # ``((a b))?`` reads back as ``(a b)?``
        if isinstance(expr, Alternatives):
            return Group(children=kids, **marks)
    return expr


def _rewrite(
    expr: Expression, path: Path, fn, reach: dict[Path, bool] | None
) -> tuple[Expression | None, int]:
    """Apply ``fn(node, path, inside) -> (node | None, matched)`` bottom-up,
    where ``node`` has its rewritten children and ``path`` is its path in the
    input tree.  A matched count of 0 keeps the node and None removes it; a
    Group or Alternatives left with fewer children than it had is collapsed.

    With a ``reach`` map, only the nodes it holds are descended into: an
    anchor (True) with its whole subtree, a node on the way to one (False)
    child by child; any other node goes to ``fn`` with its children
    unvisited.  ``inside`` tells whether the node is in an anchor's subtree,
    which every node is without a map."""
    matched = 0
    kids = children_of(expr)
    if kids and (reach is None or path in reach):
        inner = None if reach is None or reach[path] else reach
        new_kids = []
        for i, child in enumerate(kids):
            new, m = _rewrite(child, path + (i,), fn, inner)
            matched += m
            if new is not None:
                new_kids.append(new)
        if matched:
            expr = with_children(expr, tuple(new_kids))
    new, m = fn(expr, path, reach is None or reach.get(path, False))
    if m:
        if new is None:
            return None, matched + m
        expr, matched = new, matched + m
    if matched and len(children_of(expr)) < len(kids):
        return _collapse(expr), matched
    return expr, matched


def _rewritten(rule: ParserRule, fn, anchors: list[Path]) -> tuple[ParserRule, int]:
    """``rule`` with its body passed through ``_rewrite``, reaching only
    ``anchors`` and the nodes on the way to them; an edit that matches
    nothing, or empties the body, leaves the rule as it is."""
    reach = {a[:k]: False for a in anchors for k in range(len(a))}
    reach.update(dict.fromkeys(anchors, True))
    body, matched = _rewrite(rule.body, (), fn, reach)
    if body is None or not matched:
        return rule, 0
    return replace(rule, body=body), matched


def _brace_region(children: tuple[Expression, ...]) -> tuple[int, bool] | None:
    """Index of the rule-level brace region among a body's children, and
    whether a group wraps it (as MAKE_BRACES_OPTIONAL leaves it): the first
    child that opens the children's ``brace_span``, or a group whose own
    ``brace_span`` covers all of it."""
    span = brace_span(children)
    for i, child in enumerate(children):
        if span is not None and i == span[0]:
            return i, False
        if isinstance(child, Group) and brace_span(child.children) == (0, len(child.children) - 1):
            return i, True
    return None


# ---------------------------------------------------------------------------
# Operation semantics
# ---------------------------------------------------------------------------


def _apply_remove_keyword(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    text = op.param("text")
    anchors = _scope_anchors(op, index)

    def fn(node: Expression, path: Path, inside: bool):
        if (
            isinstance(node, Keyword)
            and node.text == text
            and (inside or _sibling_of_anchor(path, anchors))
            # an assignment's ``?='kw'`` terminal is not a sequence element
            and not isinstance(node_at(rule.body, path[:-1]), Assignment)
        ):
            return None, 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _apply_rename_keyword(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    old, new = str(op.param("from")), str(op.param("to"))
    anchors = _scope_anchors(op, index)

    def fn(node: Expression, path: Path, inside: bool):
        if (
            isinstance(node, Keyword)
            and node.text == old
            and (inside or _sibling_of_anchor(path, anchors))
        ):
            return replace(node, text=new), 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _sibling_of_anchor(path: Path, anchors: Iterable[Path]) -> bool:
    """A bare-assignment anchor also covers the keyword sibling immediately
    before it (generated keyword-per-attribute idiom)."""
    return any(
        len(a) == len(path) and a[:-1] == path[:-1] and a[-1] == path[-1] + 1
        for a in anchors
    )


def _apply_remove_braces(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    anchors = _scope_anchors(op, index)

    def fn(node: Expression, path: Path, inside: bool):
        if isinstance(node, Group) and inside:
            span = brace_span(node.children)
            if span is not None:
                kept = [c for i, c in enumerate(node.children) if i not in span]
                return replace(node, children=tuple(kept)), 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _apply_set_optionality(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    source, target = Cardinality.ONE, Cardinality.OPTIONAL
    if op.kind is OpKind.REMOVE_OPTIONALITY:
        source, target = target, source
    anchors = _scope_anchors(op, index)

    def fn(node: Expression, path: Path, inside: bool):
        if path in anchors and node.cardinality is source:
            return replace(node, cardinality=target), 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _apply_change_separator(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    old = str(op.param("from"))
    new = op.param("to")  # None means: drop the separator
    anchors = _scope_anchors(op, index)

    def fn(node: Expression, path: Path, inside: bool):
        if (
            isinstance(node, Group)
            and node.cardinality in (Cardinality.STAR, Cardinality.PLUS)
            and node.children
            and isinstance(node.children[0], Keyword)
            and node.children[0].text == old
            and inside
        ):
            rest = node.children[1:]
            if new is not None:
                rest = (replace(node.children[0], text=str(new)),) + rest
            return replace(node, children=rest), 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _apply_add_terminator(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    if op.scope.kind is not ScopeKind.ATTRIBUTE:
        return rule, 0
    feature = op.scope.feature or ""
    terminator = Keyword(text=str(op.param("text")))
    # The terminator follows each bare assignment anchor, and in a group
    # anchor the feature's last assignment among the group's children; keyed
    # by the path of the node holding it, the indices it follows there.
    after: dict[Path, set[int]] = {}
    anchors = _scope_anchors(op, index)
    for anchor in anchors:
        node = node_at(rule.body, anchor)
        if isinstance(node, Group):
            last = [i for i, c in enumerate(node.children) if isinstance(c, Assignment) and c.feature == feature]
            if last:
                after.setdefault(anchor, set()).add(last[-1])
        elif anchor:
            after.setdefault(anchor[:-1], set()).add(anchor[-1])

    def fn(node: Expression, path: Path, inside: bool):
        ends = after.get(path)
        if ends is None:
            return node, 0
        if isinstance(node, Alternatives):
            # A branch of its own: the terminator joins it, not the choice.
            kids = [Group(children=(c, terminator)) if i in ends else c for i, c in enumerate(node.branches)]
        else:
            kids = []
            for i, child in enumerate(node.children):
                kids += (child, terminator) if i in ends else (child,)
        return with_children(node, tuple(kids)), len(ends)

    return _rewritten(rule, fn, anchors)


def _apply_change_called_rule(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    old, new = str(op.param("from")), str(op.param("to"))
    anchors = _scope_anchors(op, index)

    def fn(node: Expression, path: Path, inside: bool):
        if (
            isinstance(node, Assignment)
            and isinstance(node.terminal, RuleCall)
            and node.terminal.rule_name == old
            and inside
        ):
            return replace(node, terminal=replace(node.terminal, rule_name=new)), 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _replace_at(root: Expression, path: Path, new_node: Expression) -> Expression:
    if not path:
        return new_node
    kids = list(children_of(root))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], new_node)
    return with_children(root, tuple(kids))


def _remove_at(body: Group, path: Path, remove: set[int]) -> Group:
    """``body`` without the children at indices ``remove`` of the node at
    ``path``.  A node left empty is removed from its parent in turn, and
    each node below the body that lost children is collapsed, so the result
    prints to text that re-parses to it."""
    node = node_at(body, path)
    kids = tuple(c for i, c in enumerate(children_of(node)) if i not in remove)
    if not path:
        return with_children(node, kids)
    shrunk = _collapse(with_children(node, kids))
    if shrunk is None:
        return _remove_at(body, path[:-1], {path[-1]})
    return _replace_at(body, path, shrunk)


def _apply_promote_attribute(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    if op.scope.kind is not ScopeKind.ATTRIBUTE:
        return rule, 0
    feature = op.scope.feature or ""
    body = rule.body
    if not isinstance(body, Group):
        return rule, 0
    assert index is not None
    paths = index.paths.get(feature)
    if not paths:
        return rule, 0
    first = paths[0]
    assignment = node_at(body, first)
    assert isinstance(assignment, Assignment)

    # Remove the assignment and a keyword sibling immediately before it.
    parent_path = first[:-1]
    parent = node_at(body, parent_path)
    kids = list(children_of(parent))
    idx = first[-1]
    remove = {idx}
    if idx > 0 and isinstance(kids[idx - 1], Keyword) and not is_brace(kids[idx - 1]):
        remove.add(idx - 1)
    body = _remove_at(body, parent_path, remove)
    if not children_of(body):
        return rule, 0

    # Insert before the brace region, i.e. right after the rule's leading
    # keyword.
    assert isinstance(body, Group)
    region = _brace_region(body.children)
    insert_at = len(body.children) if region is None else region[0]
    promoted = replace(assignment, predicated=False)
    new_children = body.children[:insert_at] + (promoted,) + body.children[insert_at:]
    return replace(rule, body=replace(body, children=new_children)), 1


def _apply_make_braces_optional(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    body = rule.body
    if not isinstance(body, Group):
        return rule, 0
    span = brace_span(body.children)
    if span is None:
        return rule, 0
    lo, hi = span
    wrapped = Group(
        children=body.children[lo : hi + 1], cardinality=Cardinality.OPTIONAL
    )
    new_children = body.children[:lo] + (wrapped,) + body.children[hi + 1 :]
    return replace(rule, body=replace(body, children=new_children)), 1


def _apply_replace_rule(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule | None, int]:
    if op.param("remove"):
        return None, 1
    body_text = op.param("body")
    if not isinstance(body_text, str):
        raise TransformError(f"{op.describe()}: missing body text")
    parsed = parse_rule_body(body_text)
    if not isinstance(parsed, Expression):
        details = "; ".join(str(d) for d in parsed)
        raise TransformError(f"{op.describe()}: body does not parse: {details}")
    new_rule = replace(rule, body=parsed)
    if "returns" in op.params:
        returns = op.param("returns")
        new_rule = replace(new_rule, returns_type=returns if returns else None)
    if "enum" in op.params:
        new_rule = replace(new_rule, enum=bool(op.param("enum")))
    return new_rule, 1


#: Every operation kind's rule-level applier ``(rule, op, index) -> (rule,
#: matched)``, where ``index`` is the rule's ``RuleIndex`` (None is enough
#: for a RULE or GRAMMAR scope); a None rule (REPLACE_RULE with ``remove``)
#: deletes the rule.
_APPLIERS = {
    OpKind.REPLACE_RULE: _apply_replace_rule,
    OpKind.REMOVE_KEYWORD: _apply_remove_keyword,
    OpKind.RENAME_KEYWORD: _apply_rename_keyword,
    OpKind.REMOVE_BRACES: _apply_remove_braces,
    OpKind.REMOVE_OPTIONALITY: _apply_set_optionality,
    OpKind.ADD_OPTIONALITY: _apply_set_optionality,
    OpKind.CHANGE_SEPARATOR: _apply_change_separator,
    OpKind.ADD_TERMINATOR: _apply_add_terminator,
    OpKind.CHANGE_CALLED_RULE: _apply_change_called_rule,
    OpKind.PROMOTE_ATTRIBUTE: _apply_promote_attribute,
    OpKind.MAKE_BRACES_OPTIONAL: _apply_make_braces_optional,
}


def _apply_in_order(
    ops: list[TransformOp], grammar: Grammar
) -> tuple[tuple[ParserRule, ...], list[int]]:
    """Apply ``ops`` in list order, each to every in-scope rule, as one pass
    over the rules: each rule gets its own ops and the GRAMMAR-scoped ones,
    in list order.  Returns the rules and each op's matched count.

    Ops only ever read the rule they edit, so this equals applying one op
    at a time to the whole grammar, down to the error raised: that of the
    first op in the list that fails.
    """
    errors: dict[int, TransformError] = {}
    everywhere: list[int] = []
    by_rule: dict[str | None, list[int]] = {}
    for i, op in enumerate(ops):
        if op.kind is OpKind.REPLACE_RULE and (
            op.scope.kind is not ScopeKind.RULE or not op.scope.rule
        ):
            errors[i] = TransformError(f"{op.describe()}: REPLACE_RULE requires a RULE scope")
        elif op.scope.kind is ScopeKind.GRAMMAR:
            everywhere.append(i)
        else:
            by_rule.setdefault(op.scope.rule, []).append(i)
    matched = [0] * len(ops)
    rules: list[ParserRule] = []
    for rule in grammar.rules:
        own = by_rule.get(rule.name, [])
        index = None  # the rule state's index, built once an op needs it
        for i in sorted(own + everywhere):
            op = ops[i]
            if index is None and op.scope.kind is ScopeKind.ATTRIBUTE:
                index = RuleIndex(rule)
            try:
                new_rule, m = _APPLIERS[op.kind](rule, op, index)
            except TransformError as err:
                errors.setdefault(i, err)
                break
            if m:
                matched[i] += m
                rule, index = new_rule, None
                if rule is None:
                    break
        if rule is not None:
            rules.append(rule)
    if errors:
        raise errors[min(errors)]
    return tuple(rules), matched


def apply_single(op: TransformOp, grammar: Grammar) -> tuple[Grammar, int]:
    """Apply one operation to every in-scope rule in one pass; a scope that
    matches nothing yields the input grammar and count 0."""
    rules, (matched,) = _apply_in_order([op], grammar)
    if not matched:
        return grammar, 0
    return replace(grammar, rules=rules), matched


def apply_config(
    config: TransformationConfig, grammar: Grammar
) -> tuple[Grammar, ApplyReport]:
    """Apply all entries in canonical phase order, in one pass over the
    rules; the input is untouched."""
    ordered = sorted(config.entries, key=lambda op: PHASE_OF[op.kind])
    rules, matched = _apply_in_order(ordered, grammar)
    report = ApplyReport([OpOutcome(op=op, matched=m) for op, m in zip(ordered, matched)])
    current = replace(grammar, rules=rules) if any(matched) else grammar
    problems = grammar_problems(current)
    if problems:
        raise TransformError(
            "config application broke grammar invariants: " + "; ".join(problems)
        )
    return current, report


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def config_to_json(config: TransformationConfig) -> str:
    entries = []
    for op in config.entries:
        scope: dict[str, object] = {"kind": op.scope.kind.value}
        if op.scope.rule is not None:
            scope["rule"] = op.scope.rule
        if op.scope.feature is not None:
            scope["feature"] = op.scope.feature
        entries.append(
            {"kind": op.kind.value, "scope": scope, "params": dict(op.params)}
        )
    doc = {"provenance": config.provenance, "entries": entries}
    return json.dumps(doc, indent=2) + "\n"


#: Params each kind needs as strings; a config entry without them is
#: rejected on load instead of applying ``str(None)``.
_STRING_PARAMS: dict[OpKind, tuple[str, ...]] = {
    OpKind.REMOVE_KEYWORD: ("text",),
    OpKind.RENAME_KEYWORD: ("from", "to"),
    OpKind.CHANGE_SEPARATOR: ("from",),
    OpKind.ADD_TERMINATOR: ("text",),
    OpKind.CHANGE_CALLED_RULE: ("from", "to"),
}


#: The param each kind writes into the rule as a keyword or a rule name,
#: checked with the printer's own predicate: a config that loads prints.
_WRITTEN = {
    OpKind.RENAME_KEYWORD: ("to", printable_keyword),
    OpKind.ADD_TERMINATOR: ("text", printable_keyword),
    OpKind.CHANGE_SEPARATOR: ("to", printable_keyword),
    OpKind.CHANGE_CALLED_RULE: ("to", printable_name),
}


def _params_problem(kind: OpKind, params: dict) -> str | None:
    """Why ``params`` cannot drive an op of ``kind``, or None."""
    for name in _STRING_PARAMS.get(kind, ()):
        if not isinstance(params.get(name), str):
            return f"{kind.value} needs a string {name!r} param"
    if kind is OpKind.CHANGE_SEPARATOR and not isinstance(params.get("to"), (str, type(None))):
        return "CHANGE_SEPARATOR 'to' must be a string or null"
    if kind is OpKind.REPLACE_RULE:
        remove = params.get("remove", False)
        if not isinstance(remove, bool) or not isinstance(params.get("enum", False), bool):
            return "REPLACE_RULE 'remove' and 'enum' must be true or false"
        if not remove and not isinstance(params.get("body"), str):
            return "REPLACE_RULE needs a string 'body' param or 'remove': true"
        returns = params.get("returns", "")  # an empty one drops the clause
        if not isinstance(returns, str):
            return "REPLACE_RULE 'returns' must be a string"
        if returns and not printable_name(returns):
            return f"REPLACE_RULE 'returns' {returns!r} cannot be printed"
    if kind in _WRITTEN:
        name, printable = _WRITTEN[kind]
        value = params.get(name)
        if value is not None and not printable(value):
            return f"{kind.value} {name!r} {value!r} cannot be printed"
    return None


def config_from_json(text: str) -> TransformationConfig:
    """Load a config; any malformed document raises TransformError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise TransformError(f"invalid config JSON: {err}") from err
    if not isinstance(doc, dict) or "entries" not in doc:
        raise TransformError("invalid config JSON: missing 'entries'")
    if not isinstance(doc["entries"], list):
        raise TransformError("invalid config JSON: 'entries' is not a list")
    entries = []
    for i, raw in enumerate(doc["entries"]):
        if not isinstance(raw, dict):
            raise TransformError(f"entry {i}: not an object")
        try:
            kind = OpKind(raw.get("kind"))
        except ValueError:
            raise TransformError(
                f"entry {i}: unknown operation kind {raw.get('kind')!r}"
            ) from None
        raw_scope = raw.get("scope", {})
        params = raw.get("params", {})
        if not isinstance(raw_scope, dict) or not isinstance(params, dict):
            raise TransformError(f"entry {i}: 'scope' and 'params' must be objects")
        try:
            scope_kind = ScopeKind(raw_scope.get("kind"))
        except ValueError:
            raise TransformError(
                f"entry {i}: unknown scope kind {raw_scope.get('kind')!r}"
            ) from None
        rule, feature = raw_scope.get("rule"), raw_scope.get("feature")
        if not all(v is None or isinstance(v, str) for v in (rule, feature)):
            raise TransformError(f"entry {i}: scope 'rule' and 'feature' must be strings")
        if scope_kind is not ScopeKind.GRAMMAR and not rule:
            raise TransformError(f"entry {i}: a {scope_kind.value} scope needs a 'rule'")
        if scope_kind is ScopeKind.ATTRIBUTE and not feature:
            raise TransformError(f"entry {i}: an ATTRIBUTE scope needs a 'feature'")
        problem = _params_problem(kind, params)
        if problem:
            raise TransformError(f"entry {i}: {problem}")
        scope = Scope(scope_kind, rule=rule, feature=feature)
        entries.append(TransformOp(kind=kind, scope=scope, params=params))
    return TransformationConfig(
        entries=tuple(entries), provenance=str(doc.get("provenance", ""))
    )


def config_summary(config: TransformationConfig) -> str:
    """Human-readable one-line-per-op summary for audit output."""
    if config.is_identity:
        return "identity: 0 operations\n"
    lines = [op.describe() for op in config.entries]
    return "\n".join(lines) + "\n"
