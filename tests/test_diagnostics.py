"""Pinned diagnostics: the message and full source span of every error that
the lexer (``_lex``, labelled ``tokenize``), ``parse_grammar`` and
``parse_rule_body`` report for a corpus of bad inputs.  Spans are ``(start_line, start_col, end_line, end_col)``,
lines and columns counted from 1; a tab and a carriage return are one column
each, and ``parse_grammar`` counts header lines."""

import pytest

from xtadapt.parsing import TokenizeError, _lex, parse_grammar, parse_rule_body

HEADER = "grammar org.example.Demo with org.eclipse.xtext.common.Terminals\nimport 'http://x'\n\n"

CASES = [
    # tokenizer errors
    ("tokenize", "a 'abc\nb",
     [("unterminated string literal", (1, 3, 1, 7))]),
    ("tokenize", 'a "abc\nb',
     [("unterminated string literal", (1, 3, 1, 7))]),
    ("tokenize", "a 'abc",
     [("unterminated string literal", (1, 3, 1, 7))]),
    ("tokenize", 'a "abc',
     [("unterminated string literal", (1, 3, 1, 7))]),
    ("tokenize", "x 'ends in a backslash\\",
     [("unterminated string literal", (1, 3, 1, 24))]),
    ("tokenize", "'a\\'b",
     [("unterminated string literal", (1, 1, 1, 6))]),
    ("tokenize", "a /* never closed",
     [("unterminated comment", (1, 3, 1, 18))]),
    ("tokenize", "a\n  /* spans\nlines\n",
     [("unterminated comment", (2, 3, 4, 1))]),
    ("tokenize", "x\t'\t",
     [("unterminated string literal", (1, 3, 1, 5))]),
    ("parse_grammar", "A: 'abc\n;",
     [("unterminated string literal", (1, 4, 1, 8))]),
    ("parse_grammar", 'A: "abc',
     [("unterminated string literal", (1, 4, 1, 8))]),
    ("parse_grammar", "A: x /* open\n\n",
     [("unterminated comment", (1, 6, 3, 1))]),
    ("parse_grammar", HEADER + "A: 'x;\n",
     [("unterminated string literal", (4, 4, 4, 7))]),
    ("parse_grammar", HEADER + "A: x;\n/* open",
     [("unterminated comment", (5, 1, 5, 8))]),
    ("parse_rule_body", "'abc",
     [("unterminated string literal", (1, 1, 1, 5))]),
    ("parse_rule_body", "a\n/*",
     [("unterminated comment", (2, 1, 2, 3))]),
    # _Parser.parse_grammar_items
    ("parse_grammar", "( A: x;",
     [("unknown top-level construct starting at '('", (1, 1, 1, 1))]),
    ("parse_grammar", "A: x;\n'kw' B: y;\nC: z;",
     [('unknown top-level construct starting at "\'kw\'"', (2, 1, 2, 4))]),
    # parse_terminal_decl
    ("parse_grammar", "terminal ;",
     [("expected terminal name", (1, 10, 1, 10))]),
    ("parse_grammar", "terminal ID: 'a'..'z'",
     [("missing ';' after terminal ID", (1, 19, 1, 21))]),
    ("parse_grammar", "terminal",
     [("expected terminal name", (1, 1, 1, 8))]),
    # parse_rule
    ("parse_grammar", "A x;",
     [("expected ':' after rule name 'A'", (1, 1, 1, 1))]),
    ("parse_grammar", "A",
     [("expected ':' after rule name 'A'", (1, 1, 1, 1))]),
    ("parse_grammar", "A: x",
     [("missing ';' terminating rule 'A'", (1, 1, 1, 1))]),
    ("parse_grammar", "A: x y )",
     [("missing ';' terminating rule 'A'", (1, 1, 1, 1))]),
    ("parse_grammar", "enum E returns : A;",
     [("expected ':' after rule name 'enum'", (1, 1, 1, 4))]),
    # parse_qualified_name
    ("parse_grammar", "A returns : x;",
     [("expected returns type", (1, 11, 1, 11))]),
    ("parse_grammar", "A returns 'T': x;",
     [("expected returns type", (1, 11, 1, 13))]),
    # parse_alternatives
    ("parse_grammar", "A: " + "(" * 70 + "x" + ")" * 70 + ";",
     [("nesting deeper than 64 levels", (1, 68, 1, 68))]),
    ("parse_rule_body", "(" * 64 + "x" + ")" * 64,
     [("nesting deeper than 64 levels", (1, 65, 1, 65))]),
    # parse_branch
    ("parse_grammar", "A: ;",
     [("empty group or alternative", (1, 4, 1, 4))]),
    ("parse_grammar", "A: x | ;",
     [("empty group or alternative", (1, 8, 1, 8))]),
    ("parse_grammar", "A: ( );",
     [("empty group or alternative", (1, 6, 1, 6))]),
    ("parse_grammar", "A:\n    x\n    | | y;",
     [("empty group or alternative", (3, 7, 3, 7))]),
    ("parse_rule_body", "",
     [("empty group or alternative", (1, 1, 1, 1))]),
    ("parse_rule_body", "   \n  ",
     [("empty group or alternative", (1, 1, 1, 1))]),
    ("parse_rule_body", "x |",
     [("empty group or alternative", (1, 3, 1, 3))]),
    # parse_primary
    ("parse_grammar", "A: =>",
     [("unexpected end of input in rule body", (1, 4, 1, 5))]),
    ("parse_rule_body", "x =>",
     [("unexpected end of input in rule body", (1, 3, 1, 4))]),
    ("parse_grammar", "A: ( x ;",
     [("unbalanced '(': missing ')'", (1, 4, 1, 4))]),
    ("parse_grammar", "A: 'a' (\n    b\n    c;",
     [("unbalanced '(': missing ')'", (1, 8, 1, 8))]),
    ("parse_grammar", "A: { ;",
     [("expected type name inside '{...}' action", (1, 4, 1, 4))]),
    ("parse_grammar", "A: {Foo ;",
     [("unbalanced '{' in action annotation", (1, 4, 1, 4))]),
    ("parse_grammar", "A: {Foo.Bar} x;",
     [("unbalanced '{' in action annotation", (1, 4, 1, 4))]),
    ("parse_grammar", "A: x ? ;\nB: * y;",
     [("unexpected token '*' in rule body", (2, 4, 2, 4))]),
    ("parse_grammar", "A: x } ;",
     [("unexpected token '}' in rule body", (1, 6, 1, 6))]),
    ("parse_grammar", "A: => => x;",
     [("unexpected token '=>' in rule body", (1, 7, 1, 8))]),
    # parse_cross_reference
    ("parse_grammar", "A: x=[Foo| ];",
     [("expected terminal name after '|' in cross-reference", (1, 6, 1, 6))]),
    ("parse_grammar", "A: x=[Foo|ID ;",
     [("unbalanced '[': missing ']'", (1, 6, 1, 6))]),
    ("parse_grammar", "A: [Foo 'x'];",
     [("unbalanced '[': missing ']'", (1, 4, 1, 4))]),
    ("parse_grammar", "A: x=[;",
     [("unbalanced '[': missing ']'", (1, 6, 1, 6))]),
    # parse_assignment_terminal
    ("parse_rule_body", "x=",
     [("malformed assignment to 'x': missing terminal", (1, 2, 1, 2))]),
    ("parse_grammar", "A: x= ;",
     [("malformed assignment to 'x': bad terminal ';'", (1, 7, 1, 7))]),
    ("parse_grammar", "A: x+=( y );",
     [("malformed assignment to 'x': bad terminal '('", (1, 7, 1, 7))]),
    ("parse_grammar", "A: x?= => y;",
     [("malformed assignment to 'x': bad terminal '=>'", (1, 8, 1, 9))]),
    # trailing input after a body
    ("parse_rule_body", "x y ;",
     [("trailing input ';' after body", (1, 5, 1, 5))]),
    ("parse_rule_body", "x )",
     [("trailing input ')' after body", (1, 3, 1, 3))]),
    ("parse_rule_body", "'a' b=C\n  ] d",
     [("unexpected token ']' in rule body", (2, 3, 2, 3))]),
    # several diagnostics in one grammar, recovery past ';'
    ("parse_grammar", "A: ;\nB: x;\nC: ( y;\nD: z",
     [("empty group or alternative", (1, 4, 1, 4)),
      ("unbalanced '(': missing ')'", (3, 4, 3, 4)),
      ("missing ';' terminating rule 'D'", (4, 1, 4, 1))]),
    # header: first_line > 1
    ("parse_grammar", HEADER + "A: ( ;\n",
     [("empty group or alternative", (4, 6, 4, 6))]),
    ("parse_grammar", HEADER + "A: x;\n\nB y;\n",
     [("expected ':' after rule name 'B'", (6, 1, 6, 1))]),
    ("parse_grammar", HEADER + "A: x",
     [("missing ';' terminating rule 'A'", (4, 1, 4, 1))]),
    ("parse_grammar", "grammar a.B\n\ngenerate b 'x'\n\n\nA: x |\n;",
     [("empty group or alternative", (7, 1, 7, 1))]),
    # \r\n and lone \r input
    ("parse_grammar", "grammar a.B\r\n\r\nA: x;\r\nB: ( ;\r\n",
     [("empty group or alternative", (4, 6, 4, 6))]),
    ("parse_grammar", "A:\r\n  x\r\n  y z =\r\n;\r\n",
     [("malformed assignment to 'z': bad terminal ';'", (4, 1, 4, 1))]),
    ("parse_grammar", "A:\r  x )\r;",
     [("missing ';' terminating rule 'A'", (1, 1, 1, 1))]),
    ("parse_rule_body", "x\r\n)",
     [("trailing input ')' after body", (2, 1, 2, 1))]),
    ("tokenize", "a\r\n'b\r\nc'",
     [("unterminated string literal", (2, 1, 2, 4))]),
    # columns: tabs, comments, non-ASCII and odd characters
    ("parse_grammar", "\tA:\t( ;",
     [("empty group or alternative", (1, 7, 1, 7))]),
    ("parse_grammar", "// note\nA: /* c */ x /* d\n e */ ) ;",
     [("missing ';' terminating rule 'A'", (2, 1, 2, 1))]),
    # '½' is a word character, so it starts a name and the rule parses
    ("parse_grammar", "A: \u00e9=ID \u00bd;", []),
    ("parse_grammar", "\u00e9t\u00e9: x \u2460 y ];",
     [("unexpected token ']' in rule body", (1, 12, 1, 12))]),
    ("parse_grammar", "A: \u00b2b.c_\u0663 ] ;",
     [("unexpected token ']' in rule body", (1, 11, 1, 11))]),
    ("parse_grammar", "A: x \f y;",
     [("unexpected token '\\x0c' in rule body", (1, 6, 1, 6))]),
    ("parse_grammar", "A: x\u00a0y;",
     [("unexpected token '\\xa0' in rule body", (1, 5, 1, 5))]),
    ("parse_grammar", "A: 'k\\'w' ( ;",
     [("empty group or alternative", (1, 13, 1, 13))]),
    ("parse_grammar", 'A: "a\\tb" x ];',
     [("unexpected token ']' in rule body", (1, 13, 1, 13))]),
    # parse_terminal_decl: a token other than ':' or ';' after the name
    ("parse_grammar", "terminal ID 'x';",
     [("expected ':' or ';' after terminal ID", (1, 13, 1, 15))]),
    # '¬' is not a word character: a one-character non-ASCII punctuation token
    ("parse_grammar", "A: \u00e9=ID \u00ac;",
     [("unexpected token '¬' in rule body", (1, 9, 1, 9))]),
]


def _diagnostics(fn: str, text: str) -> list[tuple[str, tuple[int, int, int, int]]]:
    if fn == "tokenize":
        try:
            _lex(text)
        except TokenizeError as err:
            s = err.span
            return [(str(err), (s.start_line, s.start_col, s.end_line, s.end_col))]
        return []
    result = {"parse_grammar": parse_grammar, "parse_rule_body": parse_rule_body}[fn](text)
    if not isinstance(result, list):
        return []
    return [
        (d.message, (d.span.start_line, d.span.start_col, d.span.end_line, d.span.end_col))
        for d in result
    ]


@pytest.mark.parametrize("fn,text,expected", CASES)
def test_diagnostic_message_and_span(fn, text, expected):
    assert _diagnostics(fn, text) == expected


def test_lines_after_an_escaped_newline_in_a_string_count_it():
    # The string 'a\<newline>b' ends on line 2, so the '(' is on line 3.
    text = "A: 'a\\\nb' x=ID;\nB: ( ;\n"
    assert _diagnostics("parse_grammar", text) == [
        ("empty group or alternative", (3, 6, 3, 6))
    ]
    assert str(parse_grammar(text)[0]) == "3:6 ERROR: empty group or alternative"


@pytest.mark.parametrize(
    "fn,text,expected",
    [
        ("tokenize", "'a\\\nb\n",
         [("unterminated string literal", (1, 1, 2, 2))]),
        ("parse_rule_body", "'a\\\n\\\nb' )",
         [("trailing input ')' after body", (3, 4, 3, 4))]),
        ("parse_grammar", "A: 'x\\\ny' ;\nB: 'a\\\nb' ]",
         [("unexpected token ']' in rule body", (4, 4, 4, 4))]),
    ],
)
def test_spans_after_escaped_newlines(fn, text, expected):
    assert _diagnostics(fn, text) == expected
