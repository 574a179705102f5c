"""The regex lexer against the character loop it replaced.

``_ref_lex`` is the loop, kept as a reference only.  The lexer gives token
texts; each token's kind and span are worked out apart from it, the span
only when a diagnostic needs one, and the property checks all three.  The
reference reads a string's escaped newline without counting the line, so
inputs with a backslash-newline inside a string are left out of the property
and pinned on their own.
"""

import re
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import FIXTURES, corpus_grammars
from xtadapt.parsing import (
    _STRING_HEAD,
    _TOKEN,
    SourceSpan,
    TokenizeError,
    _kinds,
    _lex,
    _Source,
    print_grammar,
)

_PUNCT2 = ("=>", "+=", "?=")


def _ref_lex(text: str, first_line: int = 1) -> list[tuple[str, str, SourceSpan]]:
    """Tokenize grammar text; comments are dropped, strings stay quoted."""
    tokens: list[tuple[str, str, SourceSpan]] = []
    line, col = first_line, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        if text.startswith("/*", i):
            l0, c0 = line, col
            i += 2
            col += 2
            while i < n and not text.startswith("*/", i):
                if text[i] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                i += 1
            if i >= n:
                raise TokenizeError("unterminated comment", SourceSpan(l0, c0, line, col))
            i += 2
            col += 2
            continue
        if ch in "'\"":
            l0, c0 = line, col
            j = i + 1
            col += 1
            while j < n:
                c = text[j]
                if c == "\\" and j + 1 < n:
                    j += 2
                    col += 2
                    continue
                if c == ch:
                    break
                if c == "\n":
                    raise TokenizeError(
                        "unterminated string literal", SourceSpan(l0, c0, line, col)
                    )
                j += 1
                col += 1
            if j >= n:
                raise TokenizeError(
                    "unterminated string literal", SourceSpan(l0, c0, line, col)
                )
            col += 1  # closing quote
            tokens.append((text[i : j + 1], "string", SourceSpan(l0, c0, line, col - 1)))
            i = j + 1
            continue
        two = text[i : i + 2]
        if two in _PUNCT2:
            tokens.append((two, "punct", SourceSpan(line, col, line, col + 1)))
            i += 2
            col += 2
            continue
        if ch.isalpha() or ch == "_":
            l0, c0 = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
                col += 1
            tokens.append((text[i:j], "ident", SourceSpan(l0, c0, line, col - 1)))
            i = j
            continue
        if ch.isdigit():
            l0, c0 = line, col
            j = i
            while j < n and (text[j].isalnum() or text[j] in "._"):
                j += 1
                col += 1
            tokens.append((text[i:j], "ident", SourceSpan(l0, c0, line, col - 1)))
            i = j
            continue
        tokens.append((ch, "punct", SourceSpan(line, col, line, col)))
        i += 1
        col += 1
    return tokens


def _lexed(text: str, first_line: int = 1):
    try:
        texts = _lex(text, first_line)
    except TokenizeError as err:
        return (str(err), err.span)
    source = _Source(text, first_line)
    return [(t, k, source.token_span(i, t)) for i, (t, k) in enumerate(zip(texts, _kinds(texts)))]


def _ref_lexed(text: str, first_line: int = 1):
    try:
        return _ref_lex(text, first_line)
    except TokenizeError as err:
        return (str(err), err.span)


def _escaped_newline_in_string(text: str) -> bool:
    # An unterminated string's token runs to the end of the text; its head
    # is the string proper.
    return any(
        "\\\n" in _STRING_HEAD.match(t)[0] for t in _TOKEN.findall(text) if t[:1] in ("'", '"')
    )


#: Both quotes, backslash, comment openers and closers, line breaks and the
#: one-column spaces, the parts of the two-character tokens, and letters,
#: digits and numerals on either side of the identifier and digit rules.
ALPHABET = "ab_Z09.'\"\\/*\n\t\f\xa0 \r=>+?()|;:é²½٣"


@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40), st.integers(1, 4))
def test_lexer_matches_the_reference(text, first_line):
    assume(not _escaped_newline_in_string(text))
    assert _lexed(text, first_line) == _ref_lexed(text, first_line)


def test_lexer_matches_the_reference_on_the_fixtures():
    texts = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.xtext"))]
    texts += [print_grammar(grammar) for _, grammar in corpus_grammars()]
    for text in texts:
        assert _lexed(text) == _ref_lexed(text)


def test_a_string_with_an_escaped_newline_ends_on_the_next_line():
    assert _lexed("'a\\\nb' c\nd", first_line=3) == [
        ("'a\\\nb'", "string", SourceSpan(3, 1, 4, 2)),
        ("c", "ident", SourceSpan(4, 4, 4, 4)),
        ("d", "ident", SourceSpan(5, 1, 5, 1)),
    ]
    # The reference counts the escaped newline as two columns of line 1.
    assert _ref_lexed("'a\\\nb' c") == [
        ("'a\\\nb'", "string", SourceSpan(1, 1, 1, 6)),
        ("c", "ident", SourceSpan(1, 8, 1, 8)),
    ]
    assert _lexed("x 'a\\\n\\\nb") == ("unterminated string literal", SourceSpan(1, 3, 3, 2))


def test_identifier_and_digit_rules_follow_str_methods_over_all_of_unicode():
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    word_chars = re.findall(r"\w", everything)
    assert word_chars == [c for c in everything if c.isalnum() or c == "_"]
    assert ord(word_chars[-1]) < 0x40000  # the planes the lexer's numeral scan covers
    tokens = _lex(" ".join(word_chars))
    assert tokens == word_chars
    assert _kinds(tokens) == [
        "ident" if c.isalpha() or c == "_" or c.isdigit() else "punct" for c in word_chars
    ]
    # A digit-led token goes on over '.', an identifier does not.
    starts = [c for c in word_chars if c.isalpha() or c == "_" or c.isdigit()]
    tokens = _lex(" ".join(c + "." + c for c in starts))
    assert tokens == [
        part for c in starts for part in ((c + "." + c,) if c.isdigit() else (c, ".", c))
    ]
