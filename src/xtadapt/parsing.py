"""Parse the pragmatic Xtext subset into the grammar model and print it back.

The subset covers everything the transformation catalog touches: parser rules
with ``returns`` clauses, assignments with ``=``/``+=``/``?=``, quoted
keywords in either quote style, groups and alternatives with cardinalities,
``=>`` predicates, ``{Type}`` actions, ``[Type|Terminal]`` cross-references
and ``terminal`` declarations.  Top-level ``grammar``/``import``/``generate``
lines are captured verbatim and never interpreted.

Printing is deterministic: equal grammar values print to byte-identical text,
and printed text re-parses to a structurally equal grammar.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, replace

from .model import (
    ASSIGN_OPERATORS,
    ActionAnnotation,
    Alternatives,
    Assignment,
    Cardinality,
    CrossReference,
    Expression,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    RuleCall,
    TerminalDecl,
    is_brace,
    is_braced,
    settle,
)

MAX_NESTING_DEPTH = 64

_HEADER_STARTS = ("grammar", "import", "generate")
_CARD_SUFFIXES = {"?": Cardinality.OPTIONAL, "*": Cardinality.STAR, "+": Cardinality.PLUS}
_INDENT = "    "


@dataclass(frozen=True)
class SourceSpan:
    start_line: int
    start_col: int
    end_line: int
    end_col: int

    def __str__(self) -> str:
        return f"{self.start_line}:{self.start_col}"


@dataclass(frozen=True)
class ParseDiagnostic:
    span: SourceSpan
    message: str

    def __str__(self) -> str:
        return f"{self.span} ERROR: {self.message}"


class TokenizeError(ValueError):
    def __init__(self, message: str, span: SourceSpan):
        super().__init__(message)
        self.span = span


# ---------------------------------------------------------------------------
# Lexing
# ---------------------------------------------------------------------------

_IDENT, _STRING, _PUNCT, _END = "ident", "string", "punct", "end"
_OPEN_STRING, _OPEN_COMMENT = "unterminated string literal", "unterminated comment"

#: One token per match, in the one group, after any whitespace and comments.
#: A name starts on a word character that is not a decimal digit and goes on
#: over word characters; a digit-led token starts on a decimal digit and also
#: goes on over ``.``.  A backslash in a string escapes any character.  An
#: unterminated string or comment runs to the end of the text, so only the
#: last token can be one; ``\Z`` matches at the end with the group empty.
_TOKEN = re.compile(
    r"""(?:[ \t\r\n]+|//[^\n]*|/\*(?s:.*?)\*/)*
    ([^\W\d]\w*|\d[\w.]*
    |'(?:[^'\\\n]|\\(?s:.))*'|"(?:[^"\\\n]|\\(?s:.))*"
    |['"](?s:.*)|/\*(?s:.*)
    |=>|\+=|\?=|(?s:.)
    |\Z)""",
    re.VERBOSE,
)

#: A string token's start: the string up to its line break, or to the end
#: with a trailing backslash; group 1 or 2 is its closing quote if it has one.
_STRING_HEAD = re.compile(
    r"""'(?:[^'\\\n]|\\(?s:.))*(?:(')|\\?)|"(?:[^"\\\n]|\\(?s:.))*(?:(")|\\?)"""
)

#: Token kind by first character, for ASCII; any other character starts an
#: identifier if it is a word character (``isalnum()``), as ``_TOKEN`` reads it.
_ASCII_KINDS = {
    c: _STRING if c in "'\"" else _IDENT if c.isalnum() or c == "_" else _PUNCT
    for c in map(chr, range(128))
}


class _Source:
    """Lines and columns of offsets in a lexed text, and the offsets of its
    tokens, from tables built when first asked."""

    __slots__ = ("text", "first_line", "_line_starts", "_offsets")

    def __init__(self, text: str, first_line: int):
        self.text = text
        self.first_line = first_line
        self._line_starts: list[int] | None = None
        self._offsets: list[int] | None = None

    def span(self, start: int, end: int) -> SourceSpan:
        """The span from offset ``start`` to offset ``end``, both included."""
        starts = self._line_starts
        if starts is None:
            starts = self._line_starts = [0]
            starts.extend(m.end() for m in re.finditer("\n", self.text))
        i = bisect_right(starts, start) - 1
        j = bisect_right(starts, end) - 1
        return SourceSpan(
            self.first_line + i, start - starts[i] + 1, self.first_line + j, end - starts[j] + 1
        )

    def token_span(self, i: int, token: str) -> SourceSpan:
        """The span of ``token``, the ``i``-th token of the text."""
        if self._offsets is None:
            self._offsets = [m.start(1) for m in _TOKEN.finditer(self.text)]
        start = self._offsets[i]
        return self.span(start, start + len(token) - 1)


def _lex(text: str, first_line: int = 1) -> list[str]:
    """Split grammar text into comparison tokens.

    Whitespace separates and comments are dropped; quoted literals are
    single tokens (quotes kept as written); ``=>``, ``+=`` and ``?=`` are
    two-character tokens; all other punctuation is one token per character.
    Raises TokenizeError on an unterminated string literal or comment.
    """
    texts = _TOKEN.findall(text)
    while texts and not texts[-1]:
        texts.pop()  # `\Z`
    if texts and texts[-1][0] in "'\"/":
        last = texts[-1]
        if last.startswith("/*"):
            message, length = _OPEN_COMMENT, len(last)
        else:
            head = _STRING_HEAD.match(last)
            if head is None or head.lastindex:
                return texts
            message, length = _OPEN_STRING, head.end()
        start = len(text) - len(last)
        raise TokenizeError(message, _Source(text, first_line).span(start, start + length))
    return texts


def _kinds(texts: list[str]) -> list[str]:
    """The kind of each token, from its first character."""
    kind_of = _ASCII_KINDS.get
    return [kind_of(t[0]) or (_IDENT if t[0].isalnum() else _PUNCT) for t in texts]


def token_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance between two token streams.

    A shared prefix or suffix never changes the distance, so only the span
    between them is compared, with the bit-vector algorithm of Myers (1999)
    in Hyyrö's form: one column of the edit-distance matrix is held as bits
    of its vertical deltas, using Python ints so the span has no length
    limit.
    """
    if a == b:
        return 0
    lo, n, m = 0, len(a), len(b)
    while lo < n and lo < m and a[lo] == b[lo]:
        lo += 1
    while n > lo and m > lo and a[n - 1] == b[m - 1]:
        n -= 1
        m -= 1
    if n == lo or m == lo:
        return (n - lo) + (m - lo)
    peq: dict[str, int] = {}  # token -> bit i set where a[lo + i] is it
    bit = 1
    for token in a[lo:n]:
        peq[token] = peq.get(token, 0) | bit
        bit <<= 1
    mask = bit - 1
    high = bit >> 1
    vp, vn, distance = mask, 0, n - lo
    for token in b[lo:m]:
        eq = peq.get(token, 0)
        xv = eq | vn
        xh = (((eq & vp) + vp) ^ vp) | eq
        ph = vn | (mask & ~(xh | vp))
        mh = vp & xh
        if ph & high:
            distance += 1
        elif mh & high:
            distance -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        vp = mh | (mask & ~(xv | ph))
        vn = ph & xv
    return distance


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class _ParseAbort(Exception):
    """Internal: unwind to the rule level after an unrecoverable diagnostic."""


#: Texts that end a branch; ``""`` is the text of the three `_END` tokens
#: that end every token list the parser reads, so that lookahead of up to
#: two tokens never runs off the list.
_BRANCH_END = frozenset(("|", ";", ")", ""))

_CARDINALITIES = {"": Cardinality.ONE, **_CARD_SUFFIXES}


class _Parser:
    """Recursive descent over parallel lists of token texts and kinds.

    Equal keywords and rule calls are built once per parser, in ``leaves``
    keyed by the quoted keyword token or the called name, the suffix and the
    predicate, and equal names are one string: nodes are immutable, so
    sharing them changes no value."""

    def __init__(self, text: str, first_line: int, diagnostics: list[ParseDiagnostic]):
        """Lex ``text``, whose first line is ``first_line``; raises
        TokenizeError."""
        texts = _lex(text, first_line)
        kinds = _kinds(texts)
        names: dict[str, str] = {}  # each name's first string in this parse
        self.texts = [names.setdefault(t, t) if k is _IDENT else t for t, k in zip(texts, kinds)]
        self.texts += [""] * 3
        self.kinds = kinds + [_END] * 3
        self.pos = 0
        self.source = _Source(text, first_line)
        self.diagnostics = diagnostics
        self.leaves: dict[tuple[str, str, bool], Expression] = {}

    def next(self) -> str:
        self.pos += 1
        return self.texts[self.pos - 1]

    def at_end(self) -> bool:
        return self.kinds[self.pos] is _END

    def error(self, message: str, at: int | None = None) -> None:
        """Report at token ``at``, by default the current token or, at the
        end, the last one."""
        if at is None:
            at = self.pos
            if self.kinds[at] is _END:
                at -= 1
        span = self.source.token_span(at, self.texts[at]) if at >= 0 else SourceSpan(1, 1, 1, 1)
        self.diagnostics.append(ParseDiagnostic(span, message))

    def abort(self, message: str, at: int | None = None) -> None:
        self.error(message, at)
        raise _ParseAbort()

    def skip_past_semicolon(self) -> None:
        while not self.at_end():
            if self.next() == ";":
                return

    def suffix(self) -> str:
        """Read an optional ``?``, ``*`` or ``+`` suffix; ``""`` if none."""
        if self.texts[self.pos] in _CARD_SUFFIXES:
            return self.next()
        return ""

    def cardinality(self) -> Cardinality:
        return _CARDINALITIES[self.suffix()]

    def leaf(self, token: str, suffix: str = "", predicated: bool = False) -> Expression:
        """The keyword of a quoted ``token``, else the call of rule ``token``,
        built on its first use in this parse."""
        key = (token, suffix, predicated)
        node = self.leaves.get(key)
        if node is None:
            card = _CARDINALITIES[suffix]
            if token[0] in "'\"":
                node = Keyword(
                    text=token[1:-1], quote=token[0], cardinality=card, predicated=predicated
                )
            else:
                node = RuleCall(rule_name=token, cardinality=card, predicated=predicated)
            self.leaves[key] = node
        return node

    # -- top level ----------------------------------------------------------

    def parse_grammar_items(self) -> tuple[list[ParserRule], list[TerminalDecl]]:
        rules: list[ParserRule] = []
        terminals: list[TerminalDecl] = []
        texts, kinds = self.texts, self.kinds
        while not self.at_end():
            pos = self.pos
            try:
                if kinds[pos] is _IDENT and texts[pos] == "terminal":
                    terminals.append(self.parse_terminal_decl())
                elif kinds[pos] is _IDENT:
                    rules.append(self.parse_rule())
                else:
                    self.abort(f"unknown top-level construct starting at {texts[pos]!r}", pos)
            except _ParseAbort:
                self.skip_past_semicolon()
        return rules, terminals

    def parse_terminal_decl(self) -> TerminalDecl:
        texts = self.texts
        self.next()  # 'terminal'
        if self.kinds[self.pos] is not _IDENT:
            self.abort("expected terminal name")
        name = self.next()
        body_parts: list[str] = []
        if texts[self.pos] == ":":
            self.next()
            while not self.at_end() and texts[self.pos] != ";":
                body_parts.append(self.next())
        elif not self.at_end() and texts[self.pos] != ";":
            self.abort(f"expected ':' or ';' after terminal {name}")
        if self.at_end():
            self.abort(f"missing ';' after terminal {name}")
        self.next()  # ';'
        return TerminalDecl(name=name, body_text=" ".join(body_parts))

    def parse_rule(self) -> ParserRule:
        texts, kinds = self.texts, self.kinds
        first = self.pos
        name = self.next()
        # An enum rule's body parses like an ordinary rule body; only the
        # marker is kept, so printing restores it.  ``enum N:`` and
        # ``enum N returns T:`` are enum rules; ``enum returns T:`` is a
        # parser rule named ``enum``.
        pos = self.pos
        enum = (
            name == "enum"
            and kinds[pos] is _IDENT
            and (
                texts[pos + 1] == ":"
                or (texts[pos + 1] == "returns" and kinds[pos + 2] is _IDENT)
            )
        )
        if enum:
            first = pos
            name = self.next()
        returns_type: str | None = None
        if kinds[self.pos] is _IDENT and texts[self.pos] == "returns":
            self.next()
            returns_type = self.parse_qualified_name("returns type")
        if texts[self.pos] != ":":
            self.abort(f"expected ':' after rule name {name!r}", first)
        self.next()
        body = self.parse_alternatives(depth=1)
        if texts[self.pos] != ";":
            self.abort(f"missing ';' terminating rule {name!r}", first)
        self.next()
        return ParserRule(name=name, returns_type=returns_type, body=body, enum=enum)

    def parse_qualified_name(self, what: str) -> str:
        texts, kinds = self.texts, self.kinds
        if kinds[self.pos] is not _IDENT:
            self.abort(f"expected {what}")
        name = self.next()
        while True:
            pos = self.pos
            text = texts[pos]
            if text == ":" and texts[pos + 1] == ":" and kinds[pos + 2] is _IDENT:
                name += "::" + texts[pos + 2]
                self.pos += 3
            elif text == "." and kinds[pos + 1] is _IDENT:
                name += "." + texts[pos + 1]
                self.pos += 2
            else:
                return name

    # -- expressions --------------------------------------------------------

    def parse_alternatives(self, depth: int) -> Expression:
        branches = self.parse_branches(depth)
        if len(branches) == 1:
            return _sequence(branches[0])
        return Alternatives(tuple(map(_sequence, branches)))

    def parse_branches(self, depth: int) -> list[list[Expression]]:
        """The elements of each ``|``-separated branch, for the caller to build."""
        if depth > MAX_NESTING_DEPTH:
            self.abort(f"nesting deeper than {MAX_NESTING_DEPTH} levels")
        texts = self.texts
        branches: list[list[Expression]] = []
        while True:
            elements: list[Expression] = []
            while texts[self.pos] not in _BRANCH_END:
                elements.append(self.parse_element(depth))
            if not elements:
                self.abort("empty group or alternative")
            branches.append(elements)
            if texts[self.pos] != "|":
                return branches
            self.pos += 1

    def parse_element(self, depth: int) -> Expression:
        """An optional ``=>``, a primary and its optional suffix, built as
        one node."""
        texts = self.texts
        start = self.pos
        predicated = texts[start] == "=>"
        if predicated:
            start = self.pos = start + 1
        kind, text = self.kinds[start], texts[start]
        if kind is _STRING:
            self.pos += 1
            return self.leaf(text, self.suffix(), predicated)
        if kind is _IDENT:
            operator = texts[start + 1]
            if operator in ASSIGN_OPERATORS:
                self.pos += 2
                return Assignment(
                    feature=text, operator=operator,
                    terminal=self.parse_assignment_terminal(text),
                    cardinality=self.cardinality(), predicated=predicated,
                )
            return self.leaf(self.parse_qualified_name("rule call"), self.suffix(), predicated)
        if text == "(":
            self.pos += 1
            branches = self.parse_branches(depth + 1)
            if texts[self.pos] != ")":
                self.abort("unbalanced '(': missing ')'", start)
            self.pos += 1
            marks = {"cardinality": self.cardinality(), "predicated": predicated}
            if len(branches) > 1:
                return Alternatives(tuple(map(_sequence, branches)), **marks)
            if len(branches[0]) > 1:
                return Group(tuple(branches[0]), **marks)
            only = settle(branches[0][0])
            if isinstance(only, (Alternatives, Group)) and only.plain:
                return replace(only, **marks)  # `((a b))?` reads as `(a b)?`
            # A single node keeps its parens, and so does one that carries
            # its own suffix or predicate: `(X?)?` has two levels.
            return Group((only,), **marks)
        if text == "{":
            self.pos += 1
            if self.kinds[self.pos] is not _IDENT:
                self.abort("expected type name inside '{...}' action", start)
            type_name = self.next()
            if texts[self.pos] != "}":
                self.abort("unbalanced '{' in action annotation", start)
            self.pos += 1
            return ActionAnnotation(
                type_name=type_name, cardinality=self.cardinality(), predicated=predicated
            )
        if text == "[":
            type_name, terminal_name = self.parse_cross_reference()
            return CrossReference(
                type_name=type_name, terminal_name=terminal_name,
                cardinality=self.cardinality(), predicated=predicated,
            )
        if kind is _END:
            self.abort("unexpected end of input in rule body")
        self.abort(f"unexpected token {text!r} in rule body", start)
        raise AssertionError("unreachable")

    def parse_cross_reference(self) -> tuple[str, str | None]:
        """``[Type|Terminal]``: its type name (maybe empty) and terminal name."""
        texts, kinds = self.texts, self.kinds
        open_at = self.pos
        self.next()  # '['
        type_name = ""
        if kinds[self.pos] is _IDENT:
            type_name = self.parse_qualified_name("cross-reference type")
        terminal_name: str | None = None
        if texts[self.pos] == "|":
            self.next()
            if kinds[self.pos] is not _IDENT:
                self.abort("expected terminal name after '|' in cross-reference", open_at)
            terminal_name = self.next()
        if texts[self.pos] != "]":
            self.abort("unbalanced '[': missing ']'", open_at)
        self.next()
        return type_name, terminal_name

    def parse_assignment_terminal(self, feature: str) -> Expression:
        pos = self.pos
        kind, text = self.kinds[pos], self.texts[pos]
        if kind is _STRING:
            self.pos += 1
            return self.leaf(text)
        if text == "[":
            return CrossReference(*self.parse_cross_reference())
        if kind is _IDENT:
            return self.leaf(self.parse_qualified_name("called rule"))
        if kind is _END:
            self.abort(f"malformed assignment to {feature!r}: missing terminal")
        self.abort(f"malformed assignment to {feature!r}: bad terminal {text!r}", pos)
        raise AssertionError("unreachable")


def _sequence(elements: list[Expression]) -> Expression:
    """A branch's elements as one node: a Group, or the settled only element."""
    return settle(elements[0]) if len(elements) == 1 else Group(tuple(elements))


def _split_header(text: str) -> tuple[str, str, int]:
    """Split verbatim header lines from the rule region.

    Returns (header_text, remainder, remainder_first_line).  Header lines are
    the leading run of ``grammar``/``import``/``generate`` lines, blank lines
    between them included, trailing blanks stripped.
    """
    lines = text.split("\n")
    last_header = -1
    for i, raw in enumerate(lines):
        stripped = raw.strip()
        if not stripped:
            continue
        first_word = stripped.split(None, 1)[0]
        if first_word in _HEADER_STARTS:
            last_header = i
        else:
            break
    if last_header < 0:
        return "", text, 1
    header = "\n".join(lines[: last_header + 1]).rstrip()
    remainder = "\n".join(lines[last_header + 1 :])
    return header, remainder, last_header + 2


def _grammar_name_from_header(header: str) -> str:
    for raw in header.split("\n"):
        stripped = raw.strip()
        if stripped.startswith("grammar"):
            parts = stripped.split()
            if len(parts) >= 2:
                return parts[1]
    return ""


def _unix_newlines(text: str) -> str:
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_grammar(source_text: str) -> Grammar | list[ParseDiagnostic]:
    """Parse grammar text; returns a Grammar or the error diagnostics."""
    header, remainder, first_line = _split_header(_unix_newlines(source_text))
    diagnostics: list[ParseDiagnostic] = []
    try:
        parser = _Parser(remainder, first_line, diagnostics)
    except TokenizeError as err:
        return [ParseDiagnostic(err.span, str(err))]
    rules, terminals = parser.parse_grammar_items()
    if diagnostics:
        return diagnostics
    return Grammar(
        name=_grammar_name_from_header(header),
        header_text=header,
        declared_terminals=tuple(terminals),
        rules=tuple(rules),
    )


def _surely_unparsable(text: str) -> bool:
    """A cheap test that ``parse_grammar(text)`` fails: the text does not lex,
    or holds a backtick outside a terminal's body (from ``terminal`` to
    ``;``), the one place where the parser takes any token."""
    try:
        tokens = _lex(_split_header(_unix_newlines(text))[1])
    except TokenizeError:
        return True
    in_terminal = False
    for token in tokens:
        in_terminal = (in_terminal or token == "terminal") and token != ";"
        if token == "`" and not in_terminal:
            return True
    return False


def parse_rule_body(body_text: str) -> Expression | list[ParseDiagnostic]:
    """Parse a bare rule body (no name, no trailing ';')."""
    diagnostics: list[ParseDiagnostic] = []
    try:
        parser = _Parser(_unix_newlines(body_text), 1, diagnostics)
    except TokenizeError as err:
        return [ParseDiagnostic(err.span, str(err))]
    try:
        body = parser.parse_alternatives(depth=1)
    except _ParseAbort:
        return diagnostics
    if not parser.at_end():
        parser.error(f"trailing input {parser.texts[parser.pos]!r} after body")
    return diagnostics or body


# ---------------------------------------------------------------------------
# Printing and comparison tokens
# ---------------------------------------------------------------------------


class UnprintableError(ValueError):
    """A model value with no printing the parser reads back: a keyword that
    fits in neither quote, a name the parser does not read at its position,
    an odd assignment operator or an empty group."""


#: Keyword text that lexes as one string between a pair of the quote: no
#: bare quote of that kind or line break, and each backslash escaping the next
#: character but a carriage return (which parsing reads as a line break).
_FITS_QUOTE = {q: re.compile(rf"(?:[^{q}\\\n\r]|\\[^\r])*") for q in "'\""}

#: Token shape of a qualified name, ``i`` standing for one identifier.
_QUALIFIED_SHAPE = re.compile(r"i(?:(?:::|\.)i)*")


def printable_keyword(text: str) -> bool:
    """Whether a keyword with ``text`` prints: in one quote or the other."""
    return any(fits.fullmatch(text) for fits in _FITS_QUOTE.values())


def keyword_quote(text: str, quote: str = "'") -> str:
    """The quote a keyword with ``text`` prints and parses back in: ``quote``
    if the text fits there, else the other one (which it may not fit)."""
    quote = '"' if quote == '"' else "'"
    if _FITS_QUOTE[quote].fullmatch(text):
        return quote
    return "'" if quote == '"' else '"'


def _keyword_token(kw: Keyword, normalized: bool) -> str:
    """``kw`` in its own quote if its text fits there, else in the other;
    ``normalized`` gives the comparison form ``'text'``."""
    text = kw.text
    quote = keyword_quote(text, kw.quote)
    if not _FITS_QUOTE[quote].fullmatch(text):
        raise UnprintableError(f"keyword {text!r} fits in neither quote")
    return "'" + text + "'" if normalized else quote + text + quote


def _name(name: str, out: list[str], qualified: bool = False) -> None:
    """Append the tokens of a name the parser reads: one identifier, or with
    ``qualified`` identifiers joined by ``::`` or ``.``."""
    if name.isascii() and name.isidentifier():  # one lexer identifier
        out.append(name)
        return
    try:
        tokens = _lex(name)
    except TokenizeError:
        tokens = []
    shape = "".join("i" if k is _IDENT else t for t, k in zip(tokens, _kinds(tokens)))
    if "".join(tokens) != name or not (
        _QUALIFIED_SHAPE.fullmatch(shape) if qualified else shape == "i"
    ):
        raise UnprintableError(f"{name!r} is not a name the parser reads")
    out.extend(tokens)


def printable_name(name: str) -> bool:
    """Whether ``name`` prints as a rule call or a ``returns`` type."""
    try:
        _name(name, [], qualified=True)
    except UnprintableError:
        return False
    return True


def _walk(expr: Expression, out: list[str], spaced: bool, bare: bool = False) -> None:
    """Append the tokens of ``expr`` printed on one line, each one ``_lex``
    token.  Printing passes ``spaced``: the spaces between tokens are
    appended too and keywords keep their printed quote; signing does not,
    and keywords take their comparison form.  ``bare`` drops the parens of a
    plain sequence, allowed where a delimiter follows: branch or body."""
    if expr.predicated:
        out.append("=>")
        if spaced:
            out.append(" ")
    kind = type(expr)
    if kind is Keyword:
        text = expr.text
        if "'" in text or '"' in text or "\\" in text or "\n" in text or "\r" in text:
            out.append(_keyword_token(expr, not spaced))
        else:  # fits either quote
            out.append('"' + text + '"' if spaced and expr.quote == '"' else "'" + text + "'")
    elif kind is Assignment:
        _name(expr.feature, out)
        if expr.operator not in ASSIGN_OPERATORS:
            raise UnprintableError(f"bad assignment operator {expr.operator!r}")
        out.append(expr.operator)
        _walk(expr.terminal, out, spaced)
    elif kind is RuleCall:
        _name(expr.rule_name, out, qualified=True)
    elif kind is Group:
        if not expr.children:
            raise UnprintableError("empty group")
        plain = bare and expr.plain
        if not plain:
            out.append("(")
        if spaced:
            for i, child in enumerate(expr.children):
                if i:
                    out.append(" ")
                _walk(child, out, True)
        else:
            for child in expr.children:
                _walk(child, out, False)
        if not plain:
            out.append(")")
    elif kind is Alternatives:
        if not expr.branches:
            raise UnprintableError("empty alternatives")
        out.append("(")
        _branches(expr.branches, out, spaced)
        out.append(")")
    elif kind is CrossReference:
        out.append("[")
        if expr.type_name:
            _name(expr.type_name, out, qualified=True)
        if expr.terminal_name is not None:
            out.append("|")
            _name(expr.terminal_name, out)
        out.append("]")
    elif kind is ActionAnnotation:
        out.append("{")
        _name(expr.type_name, out)
        out.append("}")
    else:
        raise UnprintableError(f"cannot print {kind.__name__}")
    if expr.cardinality is not Cardinality.ONE:
        out.append(expr.cardinality.value)


def _branches(branches: tuple[Expression, ...], out: list[str], spaced: bool) -> None:
    for i, branch in enumerate(branches):
        if i:
            out.extend((" ", "|", " ") if spaced else ("|",))
        _walk(branch, out, spaced, bare=True)


def _head(rule: ParserRule, out: list[str], spaced: bool) -> None:
    """Append the tokens of ``[enum] Name [returns Type]:``."""
    if rule.enum:
        out.extend(("enum", " ") if spaced else ("enum",))
    _name(rule.name, out)
    if rule.returns_type:
        out.extend((" ", "returns", " ") if spaced else ("returns",))
        _name(rule.returns_type, out, qualified=True)
    out.append(":")


def _render_inline(expr: Expression, bare: bool = False) -> str:
    out: list[str] = []
    _walk(expr, out, True, bare)
    return "".join(out)


def render_body_inline(expr: Expression) -> str:
    """Single-line body text that re-parses to the same expression."""
    return _render_inline(expr, bare=True)


def _sequence_lines(children: tuple[Expression, ...], indent: int) -> list[str]:
    lines: list[str] = []
    level = indent
    i = 0
    while i < len(children):
        child = children[i]
        brace = child.text if is_brace(child) else None
        if brace == "}":
            level = max(indent, level - 1)
        if is_braced(child) and not child.predicated:
            lines.extend(_braced_group_lines(child, level))
        elif (
            isinstance(child, Keyword)
            and brace is None
            and i + 1 < len(children)
            and isinstance(children[i + 1], Assignment)
        ):
            # Generated grammars pair each attribute with its keyword; keep
            # the pair on one line.
            pair = _render_inline(child) + " " + _render_inline(children[i + 1])
            lines.append(_INDENT * level + pair)
            i += 1
        else:
            lines.append(_INDENT * level + _render_inline(child))
        if brace == "{":
            level += 1
        i += 1
    return lines


def _braced_group_lines(group: Group, indent: int) -> list[str]:
    first, *inner, last = group.children
    lines = [_INDENT * indent + "(" + _render_inline(first)]
    lines.extend(_sequence_lines(tuple(inner), indent + 1))
    lines.append(_INDENT * indent + _render_inline(last) + ")" + group.cardinality.value)
    return lines


def _body_lines(body: Expression) -> list[str]:
    if isinstance(body, Group) and body.children and body.plain:
        return _sequence_lines(body.children, 1)
    if isinstance(body, Alternatives) and body.branches and body.plain:
        return [
            _INDENT + ("| " if i else "") + _render_inline(branch, bare=True)
            for i, branch in enumerate(body.branches)
        ]
    return [_INDENT + _render_inline(body, bare=True)]


def print_rule(rule: ParserRule) -> str:
    head: list[str] = []
    _head(rule, head, True)
    lines = _body_lines(rule.body)
    lines[-1] += ";"
    return "\n".join(["".join(head)] + lines)


def rule_signature(rule: ParserRule) -> list[str]:
    """Comparison token stream of a rule: the lexer tokens of
    ``print_rule(rule)`` with double-quoted keywords single-quoted, from the
    printer's own token walk without its line layout.  A rule that
    does not print raises the printer's UnprintableError."""
    out: list[str] = []
    _head(rule, out, False)
    body = rule.body
    if type(body) is Alternatives and body.branches and body.plain:
        _branches(body.branches, out, False)  # printed one branch per line
    else:
        _walk(body, out, False, bare=True)
    out.append(";")
    return out


def _print_terminal(term: TerminalDecl) -> str:
    if term.body_text:
        return f"terminal {term.name}: {term.body_text};"
    return f"terminal {term.name};"


def print_grammar(grammar: Grammar) -> str:
    """Deterministic text for a grammar; re-parses structurally equal."""
    blocks: list[str] = []
    if grammar.header_text:
        blocks.append(grammar.header_text)
    blocks.extend(print_rule(rule) for rule in grammar.rules)
    blocks.extend(_print_terminal(term) for term in grammar.declared_terminals)
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"
