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
from typing import Callable, Iterable, Mapping

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
    brace_region,
    brace_span,
    children_of,
    collapse,
    grammar_problems,
    is_brace,
    node_at,
    settle,
    top_sequence,
    with_children,
)
from .parsing import keyword_quote, parse_rule_body, printable_keyword, printable_name


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


class AdaptationType(Enum):
    BRACE_OPTIONALITY_REMOVAL = "BRACE_OPTIONALITY_REMOVAL"
    KEYWORD_REMOVAL = "KEYWORD_REMOVAL"
    ATTRIBUTE_PROMOTION = "ATTRIBUTE_PROMOTION"
    SEPARATOR_MODIFICATION = "SEPARATOR_MODIFICATION"
    TYPE_SYSTEM_ADAPTATION = "TYPE_SYSTEM_ADAPTATION"


@dataclass(frozen=True, slots=True)
class OpSpec:
    """One kind's catalog row: its ``phase`` in the application order, its
    ``adaptation`` type (None for the REPLACE_RULE fallback), its applier
    ``apply(rule, op, index) -> (rule | None, matched)`` (a None rule is
    deleted; ``index``, the rule's ``RuleIndex``, may be None for a RULE or
    GRAMMAR scope), the param naming a ``keyword`` the rule must hold to
    match, the params that must be ``strings`` and the param it ``writes``
    into the rule, with the printer's test for it."""

    phase: int
    adaptation: AdaptationType | None
    apply: Callable
    keyword: str | None
    strings: tuple[str, ...]
    writes: tuple[str, Callable[[object], bool]] | None


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class TransformOp:
    kind: OpKind
    scope: Scope
    params: Mapping[str, object] = field(default_factory=dict)

    def param(self, name: str, default: object = None) -> object:
        return self.params.get(name, default)

    def describe(self) -> str:
        params = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.kind.value}({params}) @ {self.scope}"


@dataclass(frozen=True, slots=True)
class TransformationConfig:
    entries: tuple[TransformOp, ...] = ()
    provenance: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def is_identity(self) -> bool:
        return not self.entries


@dataclass(slots=True)
class OpOutcome:
    op: TransformOp
    matched: int

    @property
    def no_match(self) -> bool:
        return self.matched == 0


@dataclass(slots=True)
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
#: Bound once for the index walk, which reads them per group: an Enum member is slow to look up.
_STAR, _PLUS = Cardinality.STAR, Cardinality.PLUS


class RuleIndex:
    """What scope resolution and the extractor read of one rule state, from
    one bottom-up walk of its body: each feature's assignment ``paths`` and
    region ``anchors`` (keyed in order of first assignment), the non-brace
    ``keywords`` in pre-order, the ``separators`` opening ``*``/``+`` groups,
    the body's ``brace_region`` (``braces``) and the ``leading`` keyword of
    its top-level sequence, if any.

    Per feature it also holds the keyword right before the first assignment
    (``keyword_before``: the nearest non-brace sibling, if that is a keyword
    other than the rule's name, else None) and each assignment's called
    rule (``calls``, None for a terminal that is no rule call); per anchor,
    whether its subtree holds a brace keyword (the ``braced`` set) and, if
    it holds a ``*``/``+`` group, the separator of the first one in
    pre-order (``repeats``, None for a group without one).

    A feature's anchor, per assignment, is the highest enclosing Group all
    of whose assignments target the feature (the repetition/optionality
    wrapper), else the assignment itself.  The body root only qualifies
    without a word keyword other than the feature's name:
    ``'Label' '{' ('value' value=X) '}'`` anchors at the wrapper group, not
    at the whole body."""

    __slots__ = (
        "paths", "anchors", "keywords", "separators", "braces", "leading",
        "keyword_before", "calls", "braced", "repeats",
    )

    def __init__(self, rule: ParserRule):
        # [feature, path, call, anchor, braced, repeat] per assignment, in pre-order
        found: list[list] = []
        keywords: list[str] = []
        separators: set[str] = set()
        keyword_before: dict[str, str | None] = {}

        def visit(node: Expression, path: Path, before: str | None):
            """The one feature below ``node`` (None if none, _MIXED if
            several), the assignments whose anchor may still rise above
            ``node``, whether its subtree holds a brace and its first
            ``*``/``+`` group; ``before`` is the keyword before ``node``."""
            sole: object = None
            braced, repeat = False, None
            kind = type(node)
            if kind is Assignment:
                sole, own = node.feature, [len(found)]
                call = node.terminal.rule_name if type(node.terminal) is RuleCall else None
                found.append([node.feature, path, call, path, False, None])
                keyword_before.setdefault(node.feature, before)
                kids: tuple[Expression, ...] = (node.terminal,)
            elif kind is Group:
                kids = node.children
                if node.cardinality is _STAR or node.cardinality is _PLUS:
                    repeat = node
                    if (separator := _separator(node)) is not None:
                        separators.add(separator)
            else:
                kids = node.branches
            rising: list[int] = []
            before = None
            brace_kid = assignment_kid = False
            words: list[str] = []  # the body root's own keywords
            for i, child in enumerate(kids):
                child_kind = type(child)
                if child_kind is Keyword:
                    text = child.text
                    if text == "{" or text == "}":
                        braced = brace_kid = True
                        continue  # the keyword before a node skips braces
                    keywords.append(text)
                    if not path:
                        words.append(text)
                    before = None if text == rule.name else text
                    continue
                if child_kind is Assignment or child_kind is Group or child_kind is Alternatives:
                    assignment_kid = assignment_kid or child_kind is Assignment
                    child_sole, child_rising, child_braced, child_repeat = visit(
                        child, path + (i,), before
                    )
                    if child_sole is not None and child_sole != sole:
                        sole = child_sole if sole is None else _MIXED
                    rising += child_rising
                    braced = braced or child_braced
                    repeat = repeat or child_repeat
                before = None  # any other node ends the keyword's reach
            if kind is Assignment:
                found[own[0]][4:] = braced, repeat
                return sole, own, braced, repeat  # what its terminal holds stops there
            # Braces belong to a region only right next to an assignment (the
            # generated keyword-braces-content idiom), not around a sub-group.
            if (
                kind is Group
                and rising
                and sole is not _MIXED
                and (assignment_kid or not brace_kid)
                and not any(w != sole and _is_word(w) for w in words)
            ):
                for i in rising:
                    found[i][3:] = path, braced, repeat
                return sole, rising, braced, repeat
            return sole, [], braced, repeat

        body = rule.body
        kind = type(body)
        if kind is Assignment or kind is Group or kind is Alternatives:
            visit(body, (), None)
        elif kind is Keyword and not is_brace(body):
            keywords.append(body.text)
        self.paths: dict[str, list[Path]] = {}
        self.anchors: dict[str, list[Path]] = {}
        self.calls: dict[str, list[str | None]] = {}
        self.braced: set[Path] = set()
        self.repeats: dict[Path, str | None] = {}
        for feature, path, call, anchor, braced, repeat in found:
            self.paths.setdefault(feature, []).append(path)
            self.calls.setdefault(feature, []).append(call)
            seen = self.anchors.setdefault(feature, [])
            if anchor not in seen:
                seen.append(anchor)
                if braced:
                    self.braced.add(anchor)
                if repeat is not None:
                    self.repeats[anchor] = _separator(repeat)
        self.keywords = keywords
        self.separators = separators
        self.keyword_before = keyword_before
        self.braces = brace_region(body)
        self.leading: str | None = None
        for child in top_sequence(body):
            if isinstance(child, Keyword):
                self.leading = None if is_brace(child) else child.text
            if isinstance(child, (Keyword, Assignment, Group)):
                break


def _separator(group: Group) -> str | None:
    """The keyword opening ``group``'s children, if any: a ``*``/``+``
    group's separator."""
    kids = group.children
    return kids[0].text if kids and isinstance(kids[0], Keyword) else None


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


def _rewrite(
    expr: Expression, path: Path, fn, reach: dict[Path, bool] | None
) -> tuple[Expression | None, int]:
    """Apply ``fn(node, path, inside) -> (node | None, matched)`` bottom-up,
    where ``node`` has its rewritten children and ``path`` is its path in the
    input tree.  A matched count of 0 keeps the node and None removes it; a
    Group or Alternatives left with fewer children than it had is collapsed,
    and an alternative that changed is settled.

    With a ``reach`` map, only the nodes it holds are descended into: an
    anchor (True) with its whole subtree, a node on the way to one (False)
    child by child; any other node goes to ``fn`` with its children
    unvisited.  ``inside`` tells whether the node is in an anchor's subtree,
    which every node is without a map."""
    matched = 0
    kids = children_of(expr)
    if kids and (reach is None or path in reach):
        inner = None if reach is None or reach[path] else reach
        branches = isinstance(expr, Alternatives)
        new_kids = []
        for i, child in enumerate(kids):
            new, m = _rewrite(child, path + (i,), fn, inner)
            matched += m
            if new is not None:
                new_kids.append(settle(new) if m and branches else new)
        if matched:
            expr = with_children(expr, tuple(new_kids))
    new, m = fn(expr, path, reach is None or reach.get(path, False))
    if m:
        if new is None:
            return None, matched + m
        expr, matched = new, matched + m
    if matched and len(children_of(expr)) < len(kids):
        return collapse(expr), matched
    return expr, matched


def _rewritten(rule: ParserRule, fn, anchors: list[Path]) -> tuple[ParserRule, int]:
    """``rule`` with its body passed through ``_rewrite``, reaching only
    ``anchors`` and the nodes on the way to them, and settled; an edit that
    matches nothing, or empties the body, leaves the rule as it is."""
    reach = {a[:k]: False for a in anchors for k in range(len(a))}
    reach.update(dict.fromkeys(anchors, True))
    body, matched = _rewrite(rule.body, (), fn, reach)
    if body is None or not matched:
        return rule, 0
    return ParserRule(rule.name, rule.returns_type, settle(body), enum=rule.enum), matched


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
            return replace(node, text=new, quote=keyword_quote(new, node.quote)), 1
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
            and _separator(node) == old
            and inside
        ):
            rest = node.children[1:]
            if new is not None:
                sep = node.children[0]
                quote = keyword_quote(str(new), sep.quote)
                rest = (replace(sep, text=str(new), quote=quote),) + rest
            return replace(node, children=rest), 1
        return node, 0

    return _rewritten(rule, fn, anchors)


def _terminator_slots(
    body: Expression, anchors: list[Path], feature: str
) -> tuple[dict[Path, set[int]], set[Path]]:
    """Where ADD_TERMINATOR puts a terminator of ``feature``: ``after`` maps
    a group's path to the indices of the children it follows there (a bare
    anchor in a sequence, and in a group anchor the feature's last assignment
    among its children); ``wrap`` holds each bare anchor that is a branch or
    the body, which joins the terminator in a group of its own."""
    after: dict[Path, set[int]] = {}
    wrap: set[Path] = set()
    for anchor in anchors:
        node = node_at(body, anchor)
        if isinstance(node, Group):
            kids = enumerate(node.children)
            last = [i for i, c in kids if isinstance(c, Assignment) and c.feature == feature]
            if last:
                after.setdefault(anchor, set()).add(last[-1])
        elif anchor and isinstance(node_at(body, anchor[:-1]), Group):
            after.setdefault(anchor[:-1], set()).add(anchor[-1])
        else:
            wrap.add(anchor)
    return after, wrap


def _apply_add_terminator(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    if op.scope.kind is not ScopeKind.ATTRIBUTE:
        return rule, 0
    text = str(op.param("text"))
    terminator = Keyword(text=text, quote=keyword_quote(text))
    anchors = _scope_anchors(op, index)
    after, wrap = _terminator_slots(rule.body, anchors, op.scope.feature or "")

    def fn(node: Expression, path: Path, inside: bool):
        if path in wrap:
            return Group(children=(node, terminator)), 1
        ends = after.get(path)
        if ends is None:
            return node, 0
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


def _apply_promote_attribute(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    if op.scope.kind is not ScopeKind.ATTRIBUTE or not isinstance(rule.body, Group):
        return rule, 0
    assert index is not None
    paths = index.paths.get(op.scope.feature or "")
    if not paths:
        return rule, 0
    # Remove the first assignment and a keyword right before it, and insert it
    # in the top-level sequence before the brace region; an emptied rest matches nothing.
    first = paths[0]
    promoted = replace(node_at(rule.body, first), predicated=False)
    remove = [first]
    before = first[:-1] + (first[-1] - 1,)
    if first[-1] > 0 and isinstance(kw := node_at(rule.body, before), Keyword) and not is_brace(kw):
        remove.append(before)

    def fn(node: Expression, path: Path, inside: bool):
        if path in remove:
            return None, 1
        if path or not node.children:
            return node, 0
        if not node.plain:  # the body is one element now, shaped as it reads back
            node = collapse(node)
        sequence, region = top_sequence(node), brace_region(node)
        at = len(sequence) if region is None else region[0]
        return Group(children=sequence[:at] + (promoted,) + sequence[at:]), 1

    new_rule, matched = _rewritten(rule, fn, remove)
    return new_rule, min(matched, 1)


def _apply_make_braces_optional(
    rule: ParserRule, op: TransformOp, index: RuleIndex | None
) -> tuple[ParserRule, int]:
    def fn(node: Expression, path: Path, inside: bool):
        # Only the body root comes here; a wrapped region is left as it is.
        region = brace_region(node)
        if region is None or region[1]:
            return node, 0
        lo, hi = brace_span(node.children)
        wrapped = Group(children=node.children[lo : hi + 1], cardinality=Cardinality.OPTIONAL)
        return replace(node, children=node.children[:lo] + (wrapped,) + node.children[hi + 1 :]), 1

    return _rewritten(rule, fn, [])


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


#: The operation catalog, one row per kind.  Phases give the application
#: order: wholesale replacement, then structural moves, then optionality,
#: brace removal, keyword edits, separators/terminators and finally
#: called-rule rewrites; entries keep their listed order within a phase.
#: Columns: OpSpec(phase, adaptation, apply, keyword, strings, writes).
CATALOG: dict[OpKind, OpSpec] = {
    OpKind.REPLACE_RULE: OpSpec(1, None, _apply_replace_rule, None, (), None),
    OpKind.PROMOTE_ATTRIBUTE: OpSpec(2, AdaptationType.ATTRIBUTE_PROMOTION,
        _apply_promote_attribute, None, (), None),
    OpKind.MAKE_BRACES_OPTIONAL: OpSpec(3, AdaptationType.BRACE_OPTIONALITY_REMOVAL,
        _apply_make_braces_optional, None, (), None),
    OpKind.ADD_OPTIONALITY: OpSpec(3, AdaptationType.BRACE_OPTIONALITY_REMOVAL,
        _apply_set_optionality, None, (), None),
    OpKind.REMOVE_OPTIONALITY: OpSpec(3, AdaptationType.BRACE_OPTIONALITY_REMOVAL,
        _apply_set_optionality, None, (), None),
    OpKind.REMOVE_BRACES: OpSpec(4, AdaptationType.BRACE_OPTIONALITY_REMOVAL,
        _apply_remove_braces, None, (), None),
    OpKind.REMOVE_KEYWORD: OpSpec(5, AdaptationType.KEYWORD_REMOVAL,
        _apply_remove_keyword, "text", ("text",), None),
    OpKind.RENAME_KEYWORD: OpSpec(5, AdaptationType.KEYWORD_REMOVAL,
        _apply_rename_keyword, "from", ("from", "to"), ("to", printable_keyword)),
    OpKind.CHANGE_SEPARATOR: OpSpec(6, AdaptationType.SEPARATOR_MODIFICATION,
        _apply_change_separator, None, ("from",), ("to", printable_keyword)),
    OpKind.ADD_TERMINATOR: OpSpec(6, AdaptationType.SEPARATOR_MODIFICATION,
        _apply_add_terminator, None, ("text",), ("text", printable_keyword)),
    OpKind.CHANGE_CALLED_RULE: OpSpec(7, AdaptationType.TYPE_SYSTEM_ADAPTATION,
        _apply_change_called_rule, None, ("from", "to"), ("to", printable_name)),
}


def _apply_in_order(
    ops: list[TransformOp], rules: Iterable[ParserRule]
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
    kept: list[ParserRule] = []
    for rule in rules:
        own = by_rule.get(rule.name, [])
        index = None  # the rule state's index, built once an op needs it
        for i in sorted(own + everywhere):
            op = ops[i]
            if index is None and op.scope.kind is ScopeKind.ATTRIBUTE:
                index = RuleIndex(rule)
            try:
                new_rule, m = CATALOG[op.kind].apply(rule, op, index)
            except TransformError as err:
                errors.setdefault(i, err)
                break
            if m:
                matched[i] += m
                rule, index = new_rule, None
                if rule is None:
                    break
        if rule is not None:
            kept.append(rule)
    if errors:
        raise errors[min(errors)]
    return tuple(kept), matched


def _check_invariants(grammar: Grammar) -> None:
    if problems := grammar_problems(grammar):
        raise TransformError("config application broke grammar invariants: " + "; ".join(problems))


def apply_config(
    config: TransformationConfig, grammar: Grammar
) -> tuple[Grammar, ApplyReport]:
    """Apply all entries in canonical phase order, in one pass over the
    rules; the input is untouched."""
    ordered = sorted(config.entries, key=lambda op: CATALOG[op.kind].phase)
    rules, matched = _apply_in_order(ordered, grammar.rules)
    report = ApplyReport([OpOutcome(op=op, matched=m) for op, m in zip(ordered, matched)])
    current = replace(grammar, rules=rules) if any(matched) else grammar
    _check_invariants(current)
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


def _params_problem(kind: OpKind, params: dict) -> str | None:
    """Why ``params`` cannot drive an op of ``kind``, or None: a config that
    loads never applies ``str(None)``, and prints."""
    spec = CATALOG[kind]
    for name in spec.strings:
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
    if spec.writes is not None:
        name, printable = spec.writes
        value = params.get(name)
        if value is not None and not printable(value):
            return f"{kind.value} {name!r} {value!r} cannot be printed"
    return None


def config_from_json(text: str) -> TransformationConfig:
    """Load a config; any malformed document raises TransformError."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise TransformError(f"invalid config JSON: {err}") from err
    if not isinstance(doc, dict) or "entries" not in doc:
        raise TransformError("invalid config JSON: missing 'entries'")
    if not isinstance(doc["entries"], list):
        raise TransformError("invalid config JSON: 'entries' is not a list")
    provenance = doc.get("provenance", "")
    if not isinstance(provenance, str):
        raise TransformError("invalid config JSON: 'provenance' is not a string")
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
    return TransformationConfig(entries=tuple(entries), provenance=provenance)


def config_summary(config: TransformationConfig) -> str:
    """Human-readable one-line-per-op summary for audit output."""
    lines = [op.describe() for op in config.entries]
    return "\n".join(lines) + "\n"
