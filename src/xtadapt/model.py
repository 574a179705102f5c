"""Immutable structural model of the Xtext subset this toolkit rewrites.

The model keeps no whitespace and no comments, so structural equality of two
grammars is whitespace-independent by construction.  Every node is a slotted
frozen dataclass; rewrites build new trees and never mutate, which makes
grammars safe to share across threads.  Nodes stay frozen, but their
``__init__`` writes each slot through its descriptor (see ``_node``), and
``Assignment``'s default terminal is one shared ``RuleCall('ID')``.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from typing import Iterator

Path = tuple[int, ...]


def _node(cls):
    """``dataclass(frozen=True, slots=True)`` whose ``__init__``, of the same
    parameters, sets each field by its slot descriptor, not object.__setattr__."""
    cls = dataclass(frozen=True, slots=True)(cls)
    env, positional, keyword, body = {}, ["self"], ["*"], []
    for f in fields(cls):
        env["set_" + f.name], env["default_" + f.name] = getattr(cls, f.name).__set__, f.default
        param = f.name if f.default is MISSING else f"{f.name}=default_{f.name}"
        (keyword if f.kw_only else positional).append(param)
        body.append(f"set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    params = ", ".join(positional + keyword if len(keyword) > 1 else positional)
    source = f"def __init__({params}): {'; '.join(body)}"
    exec(f"def make({', '.join(env)}):\n {source}\n return __init__", scope := {})
    cls.__init__ = scope["make"](**env)
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


class Cardinality(Enum):
    """Occurrence marker on a grammar element: none, ``?``, ``*`` or ``+``."""

    ONE = ""
    OPTIONAL = "?"
    STAR = "*"
    PLUS = "+"


@_node
class Expression:
    """Base of the closed expression variant set.

    ``cardinality`` and ``predicated`` (the ``=>`` prefix) are shared by all
    node kinds.
    """

    cardinality: Cardinality = field(default=Cardinality.ONE, kw_only=True)
    predicated: bool = field(default=False, kw_only=True)

    @property
    def plain(self) -> bool:
        """Neither a cardinality nor a predicate."""
        return self.cardinality is Cardinality.ONE and not self.predicated


@_node
class Keyword(Expression):
    """A quoted literal such as ``'Mission'`` or ``","``.

    ``quote`` records the quote character used in the source so printing can
    preserve it; token comparison elsewhere treats both styles as equal.
    """

    text: str = ""
    quote: str = "'"


@_node
class RuleCall(Expression):
    rule_name: str = ""


@_node
class CrossReference(Expression):
    """``[Type|Terminal]`` reference to an existing model element.

    ``type_name`` may be empty (the degenerate ``[|EString]`` shape produced
    by generators when the reference type is missing); ``terminal_name`` is
    ``None`` for the short ``[Type]`` form.
    """

    type_name: str = ""
    terminal_name: str | None = None


@_node
class ActionAnnotation(Expression):
    """The ``{Port}`` instantiation marker."""

    type_name: str = ""


@_node
class Assignment(Expression):
    """``feature=X``, ``feature+=X`` or ``feature?='kw'``."""

    feature: str = ""
    operator: str = "="
    terminal: Expression = RuleCall(rule_name="ID")  # immutable, so one shared default


@_node
class Group(Expression):
    """Ordered sequence of sub-expressions; parenthesized when nested."""

    children: tuple[Expression, ...] = ()

    def __post_init__(self) -> None:
        if type(self.children) is not tuple:
            object.__setattr__(self, "children", tuple(self.children))


@_node
class Alternatives(Expression):
    branches: tuple[Expression, ...] = ()

    def __post_init__(self) -> None:
        if type(self.branches) is not tuple:
            object.__setattr__(self, "branches", tuple(self.branches))


@_node
class TerminalDecl:
    name: str
    body_text: str = ""


@_node
class ParserRule:
    """A parser rule; ``enum`` marks an ``enum Name: ...;`` rule."""

    name: str
    returns_type: str | None
    body: Expression
    enum: bool = field(default=False, kw_only=True)


@_node
class Grammar:
    name: str = ""
    header_text: str = ""
    declared_terminals: tuple[TerminalDecl, ...] = ()
    rules: tuple[ParserRule, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "declared_terminals", tuple(self.declared_terminals))
        object.__setattr__(self, "rules", tuple(self.rules))


ASSIGN_OPERATORS = ("=", "+=", "?=")


def children_of(expr: Expression) -> tuple[Expression, ...]:
    """Structural children of a node, in source order."""
    if isinstance(expr, Group):
        return expr.children
    if isinstance(expr, Alternatives):
        return expr.branches
    if isinstance(expr, Assignment):
        return (expr.terminal,)
    return ()


def with_children(expr: Expression, children: tuple[Expression, ...]) -> Expression:
    """Rebuild ``expr`` with a new child tuple (same kind, same attributes)."""
    if isinstance(expr, Group):
        return Group(children, cardinality=expr.cardinality, predicated=expr.predicated)
    if isinstance(expr, Alternatives):
        return Alternatives(children, cardinality=expr.cardinality, predicated=expr.predicated)
    if isinstance(expr, Assignment):
        if len(children) != 1:
            raise ValueError("assignment takes exactly one terminal")
        return Assignment(
            expr.feature, expr.operator, children[0],
            cardinality=expr.cardinality, predicated=expr.predicated)
    if children:
        raise ValueError(f"{type(expr).__name__} has no children")
    return expr


def settle(expr: Expression) -> Expression:
    """``expr`` in branch position (a rule body or an alternative): a plain
    single-child group becomes its child, repeatedly.  Such positions print
    a plain sequence without parens, so this is the tree the printed text
    parses back to; the parser builds every branch through it."""
    while isinstance(expr, Group) and len(expr.children) == 1 and expr.plain:
        expr = expr.children[0]
    return expr


def collapse(expr: Expression) -> Expression | None:
    """A node that lost children, in the shape its printing parses back to:
    None when emptied, its child when a plain singleton.  A singleton that
    keeps a cardinality or predicate moves the marks onto a sole plain group
    (``((a b))?`` reads back as ``(a b)?``), and a single-branch
    Alternatives turns into a Group."""
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
            return replace(only, **marks)
        if isinstance(expr, Alternatives):
            return Group(children=kids, **marks)
    return expr


def is_brace(expr: Expression) -> bool:
    """Whether ``expr`` is a ``'{'`` or ``'}'`` keyword (an action's braces
    are not keywords)."""
    return isinstance(expr, Keyword) and (expr.text == "{" or expr.text == "}")


def brace_span(children: tuple[Expression, ...]) -> tuple[int, int] | None:
    """A sequence's own braces, which REMOVE_BRACES drops from each group it
    reaches: indices of the first balanced ``'{'`` ... ``'}'`` pair, or None."""
    depth = 0
    open_idx = -1
    for i, child in enumerate(children):
        if not isinstance(child, Keyword):
            continue
        if child.text == "{":
            if depth == 0:
                open_idx = i
            depth += 1
        elif child.text == "}":
            depth -= 1
            if depth == 0 and open_idx >= 0:
                return open_idx, i
    return None


def is_braced(expr: Expression) -> bool:
    """One brace block, as the printer lays it out and a wrapped region reads:
    a Group whose ``brace_span`` covers it all; ``('{' a '}' '{' b '}')`` is not."""
    return isinstance(expr, Group) and brace_span(expr.children) == (0, len(expr.children) - 1)


def top_sequence(body: Expression) -> tuple[Expression, ...]:
    """A rule body's top-level sequence: a plain Group body's children, else the body."""
    return body.children if isinstance(body, Group) and body.plain else (body,)


def brace_region(body: Expression) -> tuple[int, bool] | None:
    """A rule body's rule-level brace region, or None: its index in the
    ``top_sequence``, where the sequence's ``brace_span`` opens or an earlier
    element ``is_braced``, and whether a group wraps it, as in ``('{' a '}')?``."""
    sequence = top_sequence(body)
    span = brace_span(sequence)
    for i, child in enumerate(sequence if span is None else sequence[: span[0]]):
        if is_braced(child):
            return i, True
    return None if span is None else (span[0], False)


def walk(expr: Expression, path: Path = ()) -> Iterator[tuple[Path, Expression]]:
    """Pre-order traversal yielding (path, node); the root has path ()."""
    yield path, expr
    for i, child in enumerate(children_of(expr)):
        yield from walk(child, path + (i,))


def node_at(expr: Expression, path: Path) -> Expression:
    node = expr
    for i in path:
        node = children_of(node)[i]
    return node


def grammar_problems(grammar: Grammar) -> list[str]:
    """Model invariant violations, empty when the grammar is well-formed.

    Violations are reported rather than raised so that grammars coming from
    untrusted producers (LLM replies) can still be inspected and checked.
    """
    problems: list[str] = []
    seen: set[str] = set()
    for rule in grammar.rules:
        if not rule.name:
            problems.append("rule with empty name")
        if rule.name in seen:
            problems.append(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
        problems.extend(_expression_problems(rule.name, rule.body))
    seen_terms: set[str] = set()
    for term in grammar.declared_terminals:
        if term.name in seen_terms:
            problems.append(f"duplicate terminal name {term.name!r}")
        seen_terms.add(term.name)
    return problems


def _expression_problems(rule_name: str, expr: Expression) -> list[str]:
    problems: list[str] = []
    for _, node in walk(expr):
        if isinstance(node, Group) and not node.children:
            problems.append(f"{rule_name}: empty group")
        if isinstance(node, Alternatives) and not node.branches:
            problems.append(f"{rule_name}: empty alternatives")
        if isinstance(node, Assignment):
            if node.operator not in ASSIGN_OPERATORS:
                problems.append(f"{rule_name}: bad assignment operator {node.operator!r}")
            if not isinstance(node.terminal, (Keyword, RuleCall, CrossReference)):
                problems.append(
                    f"{rule_name}: assignment {node.feature} has a structured terminal"
                )
    return problems
