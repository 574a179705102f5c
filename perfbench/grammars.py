"""Benchmark inputs and the benchmark's own view of grammar text.

Nothing here imports xtadapt: grammars are written from hand-made templates,
fixture texts and token-level mutations, and expected outputs are compared
with the tokenizer below, so a fault in the program cannot also hide in the
expectation it is checked against.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"

HEADER = (
    "grammar org.bench.{name} with org.eclipse.xtext.common.Terminals\n"
    'generate {lower} "http://bench.org/{lower}"'
)

#: Terminal names the templates call; with the program's defaults (ID,
#: STRING, INT, EString) they make every template grammar conformant.
KNOWN_TERMINALS = frozenset({"Identifier", "String0"})

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)|(?P<lc>//[^\n]*)|(?P<bc>/\*.*?\*/)
    |(?P<str>'(?:\\.|[^'\\\n])*'|"(?:\\.|[^"\\\n])*")
    |(?P<tok>=>|\+=|\?=|[A-Za-z_]\w*|\d[\w.]*|\S)""",
    re.S | re.X,
)
_HEADER_WORDS = ("grammar", "import", "generate")
ASSIGN = ("=", "+=", "?=")


def tokens(text: str) -> list[str]:
    """Comparison tokens: comments and whitespace dropped, double-quoted
    literals rewritten single-quoted."""
    out = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "str":
            s = m.group()
            out.append("'" + s[1:-1] + "'" if s[0] == '"' else s)
        elif kind == "tok":
            out.append(m.group())
    return out


def split_header(text: str) -> tuple[str, str]:
    """(header lines, rest): the leading grammar/import/generate lines."""
    lines = text.split("\n")
    last = -1
    for i, raw in enumerate(lines):
        words = raw.split()
        if not words:
            continue
        if words[0] in _HEADER_WORDS:
            last = i
        else:
            break
    return "\n".join(lines[: last + 1]).strip(), "\n".join(lines[last + 1 :])


def statements(text: str) -> tuple[list[str], list[list[str]]]:
    """(header tokens, token list of each ';'-terminated top-level statement)."""
    header, rest = split_header(text)
    stmts: list[list[str]] = []
    cur: list[str] = []
    depth = 0
    for tok in tokens(rest):
        cur.append(tok)
        if tok in ("(", "[", "{"):
            depth += 1
        elif tok in (")", "]", "}"):
            depth -= 1
        elif tok == ";" and depth == 0:
            stmts.append(cur)
            cur = []
    if cur:
        stmts.append(cur)
    return tokens(header), stmts


def rule_tokens(text: str) -> dict[str, list[str]]:
    """Parser rules by name; terminal declarations are left out."""
    rules = {}
    for stmt in statements(text)[1]:
        if stmt[0] == "terminal":
            continue
        name = stmt[1] if stmt[0] == "enum" and len(stmt) > 1 else stmt[0]
        rules[name] = stmt
    return rules


def token_equal(a: str, b: str) -> bool:
    return tokens(a) == tokens(b)


def render_tokens(header: str, stmts: list[list[str]], rng: random.Random | None = None) -> str:
    """Grammar text from statement tokens.  With ``rng`` the layout is
    scrambled: random line breaks and indents, double quotes where legal."""
    blocks = [header] if header else []
    for stmt in stmts:
        if rng is None:
            blocks.append(" ".join(stmt))
            continue
        parts = []
        for tok in stmt:
            if tok[0] == "'" and '"' not in tok and rng.random() < 0.5:
                tok = '"' + tok[1:-1] + '"'
            parts.append(tok)
            parts.append(rng.choice((" ", " ", "  ", "\n", "\n\t", "\n      ")))
        blocks.append("".join(parts).rstrip())
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# Template grammars
# ---------------------------------------------------------------------------

_RULE_WORDS = (
    "Mission", "Vehicle", "Feature", "Signal", "Port", "Channel", "Sensor",
    "Budget", "Mode", "Event", "Timer", "Region", "Block", "Package", "Link",
)
_ATTR_WORDS = (
    "category", "owner", "label", "uuid", "unit", "rate", "kind", "alias",
    "weight", "origin", "status", "level", "scope", "priority", "target",
)


@dataclass
class Attr:
    name: str
    kind: str
    born: int


@dataclass
class RuleSpec:
    name: str
    template: str
    attrs: list[Attr] = field(default_factory=list)
    born: int = 0


# Generated and adapted renderings of one attribute, per kind.  Each
# adaptation is local to its attribute, so an attribute the config has never
# seen keeps its generated form when the config is replayed.
_ATTR_FORMS = {
    "plain": ("('{a}' {a}=String0)?", "('{a}' {a}=String0)?"),
    "term": ("('{a}' {a}=Identifier)?", "('{a}' {a}=Identifier ';')?"),
    "call": ("('{a}' {a}=String0)?", "('{a}' {a}=Identifier ';')?"),
    "nokw": ("('{a}' {a}=String0)?", "({a}=String0)?"),
    "list": (
        "('{a}' '{{' {a}+=Identifier ( \",\" {a}+=Identifier)* '}}' )?",
        "( {a}+=Identifier ( {a}+=Identifier)* )?",
    ),
    "sep": (
        "('{a}' {a}+=Identifier ( \",\" {a}+=Identifier)* )?",
        "('{a}' {a}+=Identifier ( \";\" {a}+=Identifier)* )?",
    ),
    "req": ("('{a}' {a}=String0)?", "('{a}' {a}=String0)"),
}

#: Attribute kinds each template draws from; the template's own rule-level
#: adaptation makes every rule differ between its two forms.
TEMPLATES = {
    "entity": ("plain", "term", "call", "nokw", "list"),
    "statement": ("plain", "nokw", "list", "sep"),
    "record": ("plain", "nokw", "req"),
}

#: The kind a newly added attribute has in the generated grammar.
NEW_ATTR_KIND = "plain"


def _attr_line(attr: Attr, adapted: bool) -> str:
    return "        " + _ATTR_FORMS[attr.kind][1 if adapted else 0].format(a=attr.name)


def render_rule(rule: RuleSpec, adapted_until: int | None) -> str:
    """The rule in generated form (``adapted_until`` None) or adapted, where
    only attributes born at or before ``adapted_until`` are adapted."""
    adapted = adapted_until is not None and rule.born <= adapted_until
    lines = [f"{rule.name} returns {rule.name}:"]
    attrs = [
        _attr_line(a, adapted and a.born <= adapted_until) for a in rule.attrs
    ]
    if rule.template == "entity":
        if adapted:
            lines += [f"    '{rule.name}'", "    shortName=Identifier", "    ('{'"]
            lines += attrs + ["    '}')?;"]
        else:
            lines += [f"    '{rule.name}'", "    '{'", "        'shortName' shortName=Identifier"]
            lines += attrs + ["    '}';"]
    elif rule.template == "statement":
        lead = rule.name.lower() if adapted else rule.name
        lines += [f"    '{lead}'", "    '{'"] + attrs + ["    '}';"]
    else:
        opt = "?" if adapted else ""
        lines += [f"    '{rule.name}'", "    '{'", f"        ('id' id=Identifier){opt}"]
        lines += attrs + ["    '}';"]
    return "\n".join(lines)


def render_grammar(name: str, rules: list[RuleSpec], adapted_until: int | None) -> str:
    header = HEADER.format(name=name, lower=name.lower())
    return "\n\n".join([header] + [render_rule(r, adapted_until) for r in rules]) + "\n"


class _Names:
    """Unique rule and attribute names drawn from word pools."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.count = 0

    def rule(self) -> str:
        self.count += 1
        return f"{self.rng.choice(_RULE_WORDS)}{self.count}"

    def attr(self) -> str:
        self.count += 1
        return f"{self.rng.choice(_ATTR_WORDS)}{self.count}"


def random_rule(rng: random.Random, names: _Names, born: int, max_attrs: int = 2) -> RuleSpec:
    template = rng.choice(sorted(TEMPLATES))
    kinds = TEMPLATES[template]
    attrs = [Attr(names.attr(), rng.choice(kinds), born) for _ in range(rng.randint(1, max_attrs))]
    return RuleSpec(names.rule(), template, attrs, born)


def composite(rng: random.Random, n_rules: int, names: _Names | None = None) -> list[RuleSpec]:
    names = names or _Names(rng)
    return [random_rule(rng, names, 0) for _ in range(n_rules)]


@dataclass
class EvolutionStep:
    """One replay-scale item: learn on (g1, g1prime), replay on g2."""

    g1: str
    g1prime: str
    g2: str
    expected: str
    dropped: tuple[str, ...]
    required: int
    rule_count: int


class EvolutionChain:
    """Seeded chain of composite grammars.  Each step drops and adds a few
    rules and adds attributes to others, as a regenerated metamodel would."""

    def __init__(self, seed: int, n_rules: int):
        self.rng = random.Random(f"chain:{seed}")
        self.names = _Names(self.rng)
        self.rules = composite(self.rng, n_rules, self.names)
        self.n_rules = n_rules
        self.step = 0

    def next(self) -> EvolutionStep:
        rng, k = self.rng, self.step
        churn = max(1, round(0.04 * self.n_rules))
        dropped = set(rng.sample([r.name for r in self.rules], churn))
        evolved: list[RuleSpec] = []
        for rule in self.rules:
            if rule.name in dropped:
                continue
            attrs = list(rule.attrs)
            if rng.random() < 0.1:
                attrs.append(Attr(self.names.attr(), NEW_ATTR_KIND, k + 1))
            evolved.append(RuleSpec(rule.name, rule.template, attrs, rule.born))
        for _ in range(churn):
            evolved.insert(rng.randrange(len(evolved) + 1), random_rule(rng, self.names, k + 1))
        item = EvolutionStep(
            g1=render_grammar("Chain", self.rules, None),
            g1prime=render_grammar("Chain", self.rules, k),
            g2=render_grammar("Chain", evolved, None),
            expected=render_grammar("Chain", evolved, k),
            dropped=tuple(r.name for r in self.rules if r.name in dropped),
            required=sum(1 for r in evolved if r.born <= k),
            rule_count=len(evolved),
        )
        # Attributes and rules born in this step get their own adaptation
        # kind once engineers adapt the new grammar for the next step.
        for rule in evolved:
            for attr in rule.attrs:
                if attr.born == k + 1:
                    attr.kind = rng.choice(TEMPLATES[rule.template])
        self.rules = evolved
        self.step += 1
        return item


# ---------------------------------------------------------------------------
# Fixture pairs and token-level mutants
# ---------------------------------------------------------------------------

PAIRS = (
    "mission", "vehiclefeature", "typebounds", "comment", "requirement", "label",
    "nodelist", "deadline", "dotstatements", "port", "xtypeparameter",
    "xgenerictype", "xattribute",
)
#: Pairs whose single rule extracts to a REPLACE_RULE fallback.
FALLBACK_PAIRS = ("port", "xtypeparameter", "xgenerictype", "xattribute")


def fixture(name: str) -> str:
    return (FIXTURES / f"{name}.xtext").read_text(encoding="utf-8")


def fixture_grammars() -> list[str]:
    """Mutation bases: both sides of every fixture pair.  The enum fixture
    ``tests/fixtures/edgeop.xtext`` is not copied: printing drops its
    ``enum`` marker, so no enum grammar survives a replay (see CHANGES.md)."""
    names = [f"{p}_{side}" for p in PAIRS for side in ("generated", "target")]
    return [fixture(n) for n in names]


def with_extra_attribute(text: str) -> tuple[str, str]:
    """(text, rule name) with ``('extra' extra=EString)?`` added before the
    rule's closing brace; used on single-rule fallback fixtures."""
    at = text.rindex("'}'")
    name = rule_tokens(text).popitem()[0]
    return text[:at] + "('extra' extra=EString)?\n    " + text[at:], name


_RENAME_POOL = ("extends", "front", "uses", "provides", "items", "meta")
_CALL_POOL = ("UUID", "Identifier", "QualifiedName", "TimeValue")
_SEP_POOL = ("';'", "'&'", None)


def _is_word_kw(tok: str) -> bool:
    return tok[0] == "'" and len(tok) > 2 and (tok[1].isalpha() or tok[1] == "_")


def _is_ident(tok: str) -> bool:
    return tok[0].isalpha() or tok[0] == "_"


def _mutation_sites(stmt: list[str]) -> list[tuple[str, int]]:
    sites = []
    n = len(stmt)
    for i, tok in enumerate(stmt):
        nxt = stmt[i + 1] if i + 1 < n else ""
        if _is_word_kw(tok):
            sites.append(("rename", i))
            after_assign = i > 0 and stmt[i - 1] in ASSIGN
            if not after_assign and i + 2 < n and _is_ident(nxt) and stmt[i + 2] in ASSIGN:
                sites.append(("drop_kw", i))
        if (
            tok == "("
            and i + 3 < n
            and nxt[0] == "'"
            and not _is_word_kw(nxt)
            and nxt not in ("'{'", "'}'")
            and _is_ident(stmt[i + 2])
            and stmt[i + 3] in ASSIGN
        ):
            sites.append(("separator", i + 1))
        if tok in ("=", "+=") and _is_ident(nxt) and nxt != "terminal":
            sites.append(("call", i + 1))
        if tok == ")":
            sites.append(("optional", i))
        if tok == "'{'":
            sites.append(("braces", i))
    return sites


def _matching_close(stmt: list[str], i: int) -> int | None:
    depth = kw = 0
    for j in range(i, len(stmt)):
        tok = stmt[j]
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1
            if depth < 0:
                return None
        elif tok == "'{'" and depth == 0:
            kw += 1
        elif tok == "'}'" and depth == 0:
            kw -= 1
            if kw == 0:
                return j if j > i + 1 else None
    return None


def _mutate(stmt: list[str], kind: str, i: int, rng: random.Random) -> bool:
    tok = stmt[i]
    if kind == "rename":
        stmt[i] = "'" + rng.choice([w for w in _RENAME_POOL if w != tok[1:-1]]) + "'"
    elif kind == "drop_kw":
        del stmt[i]
    elif kind == "separator":
        new = rng.choice([s for s in _SEP_POOL if s != tok])
        if new is None:
            del stmt[i]
        else:
            stmt[i] = new
    elif kind == "call":
        stmt[i] = rng.choice([c for c in _CALL_POOL if c != tok])
    elif kind == "optional":
        nxt = stmt[i + 1] if i + 1 < len(stmt) else ""
        if nxt == "?":
            del stmt[i + 1]
        elif nxt not in ("*", "+"):
            stmt.insert(i + 1, "?")
        else:
            return False
    elif kind == "braces":
        close = _matching_close(stmt, i)
        if close is None:
            return False
        del stmt[close]
        del stmt[i]
    return True


def token_mutant(text: str, rng: random.Random, n_ops: int) -> str:
    """``text`` with ``n_ops`` keyword, separator, call, optionality or brace
    edits, each of the kind a catalog operation makes, re-laid one rule per
    line."""
    header, rest = split_header(text)
    stmts = [list(s) for s in statements(text)[1]]
    rules = [s for s in stmts if s[0] != "terminal"]
    for _ in range(n_ops):
        stmt = rng.choice(rules)
        sites = _mutation_sites(stmt)
        if sites:
            kind, i = rng.choice(sites)
            _mutate(stmt, kind, i, rng)
    return render_tokens(header, stmts)


# ---------------------------------------------------------------------------
# Known-answer evaluation trios
# ---------------------------------------------------------------------------


@dataclass
class Trio:
    g2: str
    candidate: str
    target: str
    total: int
    required: int
    correct: int


def trio(rng: random.Random, total: int, required: int, correct: int) -> Trio:
    """``required`` of ``total`` rules lose an attribute keyword in the
    target; the candidate realizes ``correct`` of them."""
    names = _Names(rng)
    order = list(range(total))
    rng.shuffle(order)
    req = set(order[:required])
    ok = set(order[:correct])
    parts = {"g2": [], "cand": [], "target": []}
    for i in range(total):
        rule, attr = names.rule(), names.attr()
        verbose = (
            f"{rule} returns {rule}:\n    '{rule}'\n    '{{'\n"
            f"        ('{attr}' {attr}=ID)?\n    '}}';"
        )
        adapted = verbose.replace(f"('{attr}' {attr}", f"({attr}")
        parts["g2"].append(verbose)
        parts["target"].append(adapted if i in req else verbose)
        parts["cand"].append(adapted if i in ok else verbose)
    g2, cand, target = ("\n\n".join(parts[k]) + "\n" for k in ("g2", "cand", "target"))
    return Trio(g2, cand, target, total, required, correct)


# ---------------------------------------------------------------------------
# Scripted adaptation sessions
# ---------------------------------------------------------------------------

BAD_KINDS = ("prose", "no_semicolon", "misspelled_call")
_TYPOS = {"Identifier": "Identifer", "String0": "Strng0"}
PROSE_REPLY = "Sorry, I am unable to produce the adapted grammar right now."
ANALYSIS_REPLY = (
    "The target grammar drops attribute keywords, makes braces optional and "
    "adds terminators."
)


def _fenced(text: str) -> str:
    return "Here is the adapted grammar.\n\n```xtext\n" + text.rstrip() + "\n```\n"


def bad_reply(target: str, kind: str, rng: random.Random) -> str:
    if kind == "prose":
        return PROSE_REPLY
    if kind == "no_semicolon":
        ends = [m.start() for m in re.finditer(r";\s*$", target, re.M)]
        at = rng.choice(ends)
        return _fenced(target[:at] + target[at + 1 :])
    call = rng.choice(list(re.finditer(r"=(Identifier|String0)\b", target)))
    typo = _TYPOS[call.group(1)]
    return _fenced(target[: call.start(1)] + typo + target[call.end(1) :])


@dataclass
class Session:
    g1: str
    g1prime: str
    g2: str
    target: str
    bad: tuple[str, ...]
    replies: tuple[str, ...]


def session(rng: random.Random, n_rules: int, n_bad: int) -> Session:
    names = _Names(rng)
    rules = composite(rng, n_rules, names)
    evolved = [
        RuleSpec(r.name, r.template, list(r.attrs), r.born)
        for r in rules
        if rng.random() > 0.05
    ]
    for rule in evolved:
        if rng.random() < 0.1:
            rule.attrs = rule.attrs + [Attr(names.attr(), NEW_ATTR_KIND, 0)]
    evolved += [random_rule(rng, names, 0) for _ in range(max(1, n_rules // 20))]
    name = "Session"
    target = render_grammar(name, evolved, 0)
    bad = tuple(rng.choice(BAD_KINDS) for _ in range(n_bad))
    header, rest = split_header(target)
    good = _fenced(render_tokens(header, statements(target)[1], rng))
    replies = (ANALYSIS_REPLY,) + tuple(bad_reply(target, k, rng) for k in bad) + (good,)
    return Session(
        g1=render_grammar(name, rules, None),
        g1prime=render_grammar(name, rules, 0),
        g2=render_grammar(name, evolved, None),
        target=target,
        bad=bad,
        replies=replies,
    )
