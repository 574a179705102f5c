import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    PAIRS,
    apply_single,
    assignments_of,
    corpus_grammars,
    load_grammar,
    normalized_tokens,
    random_mutation_pair,
    read_fixture,
)
from xtadapt.model import (
    ActionAnnotation,
    Alternatives,
    Assignment,
    Cardinality,
    CrossReference,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    RuleCall,
    children_of,
    walk,
    with_children,
)
from xtadapt.parsing import (
    ParseDiagnostic,
    TokenizeError,
    UnprintableError,
    _lex,
    _surely_unparsable,
    parse_grammar,
    parse_rule_body,
    print_grammar,
    print_rule,
    rule_signature,
    token_distance,
)
from xtadapt.transform import (
    OpKind,
    TransformError,
    TransformOp,
    attribute_scope,
    rule_scope,
)


# -- lexing -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("'shortName' shortName=Identifier", ["'shortName'", "shortName", "=", "Identifier"]),
        (
            '( "," ownedComment+=Comment)*',
            ["(", '","', "ownedComment", "+=", "Comment", ")", "*"],
        ),
        ("=> compass_pt=COMPASS_PT", ["=>", "compass_pt", "=", "COMPASS_PT"]),
        ("unique?='unique'?", ["unique", "?=", "'unique'", "?"]),
        ("", []),
    ],
)
def test_tokenize(text, expected):
    assert _lex(text) == expected


def test_tokenize_unterminated_string():
    with pytest.raises(TokenizeError):
        _lex("'unclosed")


def test_tokenize_drops_comments():
    assert _lex("a // trailing\nb /* multi\nline */ c") == ["a", "b", "c"]


def test_normalized_tokens_equate_quote_styles():
    assert normalized_tokens('","') == normalized_tokens("','")


def test_token_distance():
    assert token_distance(["a", "b"], ["a", "b"]) == 0
    assert token_distance(["a"], ["a", "b"]) == 1
    assert token_distance([], ["x", "y"]) == 2
    assert token_distance(["a", "b", "c"], ["a", "x", "c"]) == 1


# -- parse ------------------------------------------------------------------


def test_parse_mission_shape():
    grammar = load_grammar("mission_generated.xtext")
    assert len(grammar.rules) == 1
    rule = grammar.rules[0]
    assert rule.name == "Mission"
    body = rule.body
    assert isinstance(body, Group)
    keywords = [n.text for _, n in walk(body) if isinstance(n, Keyword)]
    assert "Mission" in keywords
    assert keywords.count("{") == 2 and keywords.count("}") == 2
    assignments = [n for _, n in walk(body) if isinstance(n, Assignment)]
    assert len(assignments) == 6  # ownedComment repeats in the separator shape
    optional_groups = [
        n
        for _, n in walk(body)
        if isinstance(n, Group) and n.cardinality is Cardinality.OPTIONAL
    ]
    assert len(optional_groups) == 4  # category, uuid, name, ownedComment


def test_parse_port_predicate():
    grammar = load_grammar("port_target.xtext")
    rule = grammar.rules[0]
    alternatives = [n for _, n in walk(rule.body) if isinstance(n, Alternatives)]
    assert len(alternatives) == 1
    first_branch = alternatives[0].branches[0]
    assert first_branch.predicated is True
    assert isinstance(first_branch, Assignment)
    assert not alternatives[0].branches[1].predicated


def test_parse_empty_input():
    grammar = parse_grammar("")
    assert isinstance(grammar, Grammar)
    assert grammar.rules == ()
    assert grammar.header_text == ""


def test_parse_header_captured_verbatim():
    grammar = load_grammar("mission_generated.xtext")
    assert grammar.header_text.startswith("grammar org.eastadl.structure.Mission")
    assert grammar.name == "org.eastadl.structure.Mission"
    assert "generate mission" in grammar.header_text


def test_parse_crossreferences():
    generated = load_grammar("xgenerictype_generated.xtext")
    refs = [
        n for _, n in walk(generated.rules[0].body) if isinstance(n, CrossReference)
    ]
    assert refs == [CrossReference(type_name="", terminal_name="EString")]
    target = load_grammar("xgenerictype_target.xtext")
    refs = [n for _, n in walk(target.rules[0].body) if isinstance(n, CrossReference)]
    assert refs[0].type_name == "genmodel::GenBase"
    assert refs[0].terminal_name == "XQualifiedName"


def test_parse_terminal_declarations():
    grammar = load_grammar("port_generated.xtext")
    assert [t.name for t in grammar.declared_terminals] == ["COMPASS_PT"]
    assert "'ne'" in grammar.declared_terminals[0].body_text


@pytest.mark.parametrize(
    "source,fragment",
    [
        ("A: (name=ID;", "unbalanced '('"),
        ("A: name=ID", "missing ';'"),
        ("A: name== ID;", "malformed assignment"),
        ("= stray;", "unknown top-level construct"),
    ],
)
def test_parse_error_diagnostics(source, fragment):
    result = parse_grammar(source)
    assert not isinstance(result, Grammar)
    assert any(fragment in d.message for d in result)
    for diagnostic in result:
        assert diagnostic.span.start_line >= 1


def test_diagnostic_spans_inside_input():
    source = "A: name=ID\nB: x=ID;\n"
    result = parse_grammar(source)
    assert isinstance(result, list)
    line_count = source.count("\n") + 1
    for diagnostic in result:
        assert 1 <= diagnostic.span.start_line <= line_count


def test_parse_crlf_input():
    text = read_fixture("mission_generated.xtext").replace("\n", "\r\n")
    grammar = parse_grammar(text)
    assert isinstance(grammar, Grammar)
    assert grammar == load_grammar("mission_generated.xtext")


def test_nesting_depth_guard():
    body = "(" * 80 + "name=ID" + ")" * 80
    result = parse_grammar(f"A: {body};")
    assert not isinstance(result, Grammar)
    assert any("nesting" in d.message for d in result)


def test_parse_rule_body_fragment():
    body = parse_rule_body("'extends' bounds+=XGenericType ( \"&\" bounds+=XGenericType)*")
    assert isinstance(body, Group)
    assert isinstance(body.children[0], Keyword)


# -- one node per parenthesized group --------------------------------------------


def _counting_groups(monkeypatch) -> list[Group]:
    """The Groups built from here on, ``dataclasses.replace`` copies included."""
    built: list[Group] = []
    init = Group.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Group, "__init__", counting)
    return built


def test_the_parser_builds_one_group_per_parenthesized_group(monkeypatch):
    built = _counting_groups(monkeypatch)
    grammar = parse_grammar("R: ('a' a=ID)? ('b' b+=ID (',' b+=ID)*)?;")
    # three parenthesized groups and the body's sequence, each built once
    assert len(built) == 4
    a, b, comma = (Keyword(text=t) for t in "ab,")
    opt, star = Cardinality.OPTIONAL, Cardinality.STAR
    b_items = Assignment(feature="b", operator="+=")
    expected = Group(children=(
        Group(children=(a, Assignment(feature="a")), cardinality=opt),
        Group(children=(b, b_items, Group(children=(comma, b_items), cardinality=star)),
              cardinality=opt),
    ))
    assert grammar == Grammar(rules=(ParserRule("R", None, expected),))


_a, _b, _x = (RuleCall(rule_name=name) for name in "abx")


@pytest.mark.parametrize(
    "shape,node,groups",
    [
        ("((a b))?", Group(children=(_a, _b), cardinality=Cardinality.OPTIONAL), 2),
        ("((a|b))*", Alternatives(branches=(_a, _b), cardinality=Cardinality.STAR), 0),
        ("(x)", Group(children=(_x,)), 1),
        ("(x?)?", Group(children=(replace(_x, cardinality=Cardinality.OPTIONAL),),
                        cardinality=Cardinality.OPTIONAL), 1),
        ("((a))", Group(children=(_a,)), 2),
        ("=>(a b)", Group(children=(_a, _b), predicated=True), 1),
    ],
)
def test_rare_parenthesized_shapes_parse_to_written_out_trees(monkeypatch, shape, node, groups):
    """Each shape after a keyword, so that the body keeps it as written; the
    Groups built are one per parenthesized Group and the body's sequence."""
    built = _counting_groups(monkeypatch)
    body = parse_rule_body("'k' " + shape)
    assert len(built) == groups + 1
    assert body == Group(children=(Keyword(text="k"), node))


# -- print ------------------------------------------------------------------


@pytest.mark.parametrize("name,grammar", corpus_grammars())
def test_round_trip_fixpoint(name, grammar):
    printed = print_grammar(grammar)
    reparsed = parse_grammar(printed)
    assert isinstance(reparsed, Grammar), f"{name}: reprint did not parse"
    assert reparsed == grammar
    assert print_grammar(reparsed) == printed


# -- leaves shared within a parse ----------------------------------------------


def _nodes(grammar: Grammar) -> list:
    return [node for rule in grammar.rules for _, node in walk(rule.body)]


def _unshared(expr):
    """``expr`` rebuilt node by node, every node a new object."""
    return with_children(replace(expr), tuple(_unshared(c) for c in children_of(expr)))


def test_equal_leaves_are_one_object_within_a_parse():
    body = parse_rule_body("'k' x=ID 'k' y=ID ('k' | \"k\")? 'k'? ID =>ID ID? z='k'")
    leaves = [node for _, node in walk(body) if isinstance(node, (Keyword, RuleCall))]
    assert len(leaves) == 11
    by_value: dict = {}
    for leaf in leaves:
        by_value.setdefault(leaf, set()).add(id(leaf))
    # 'k', "k", 'k'?, ID, =>ID and ID?: one object each.
    assert len(by_value) == 6
    assert all(len(ids) == 1 for ids in by_value.values())
    grammar = load_grammar("mission_generated.xtext")
    leaves = [node for node in _nodes(grammar) if isinstance(node, (Keyword, RuleCall))]
    assert len({id(leaf) for leaf in leaves}) == len(set(leaves)) < len(leaves)


def test_two_parses_of_one_text_share_no_node():
    text = read_fixture("mission_generated.xtext")
    first, second = parse_grammar(text), parse_grammar(text)
    assert first == second
    assert not {id(node) for node in _nodes(first)} & {id(node) for node in _nodes(second)}


@pytest.mark.parametrize("name,grammar", corpus_grammars())
def test_a_parse_is_the_value_of_its_copy_without_sharing(name, grammar):
    copy = replace(
        grammar, rules=tuple(replace(rule, body=_unshared(rule.body)) for rule in grammar.rules)
    )
    assert len({id(node) for node in _nodes(copy)}) == len(_nodes(copy))
    assert copy == grammar
    assert hash(copy) == hash(grammar)
    assert print_grammar(copy) == print_grammar(grammar)
    assert [rule_signature(r) for r in copy.rules] == [rule_signature(r) for r in grammar.rules]


def test_print_deterministic():
    a = load_grammar("mission_target.xtext")
    b = load_grammar("mission_target.xtext")
    assert print_grammar(a) == print_grammar(b)


def test_print_minimal_rule():
    grammar = parse_grammar("A returns A: name=ID;")
    text = print_grammar(grammar)
    assert text == "A returns A:\n    name=ID;\n"


def test_header_only_grammar_round_trip():
    grammar = parse_grammar("grammar org.example.Empty\n")
    assert isinstance(grammar, Grammar)
    assert grammar.rules == ()
    assert grammar.name == "org.example.Empty"
    assert parse_grammar(print_grammar(grammar)) == grammar


def test_enum_rule_marker_round_trips():
    grammar = parse_grammar("enum EdgeOp returns EdgeOp:\n    directed='->' | undirected='--';")
    assert isinstance(grammar, Grammar)
    rule = grammar.rules[0]
    assert rule.name == "EdgeOp"
    assert rule.enum
    assert isinstance(rule.body, Alternatives)
    printed = print_grammar(grammar)
    assert printed.startswith("enum EdgeOp returns EdgeOp:")
    reparsed = parse_grammar(printed)
    assert reparsed == grammar
    assert rule_signature(rule)[:2] == ["enum", "EdgeOp"]


def test_rule_named_enum_with_returns_is_a_parser_rule():
    grammar = parse_grammar("enum returns X: 'a';")
    assert isinstance(grammar, Grammar)
    assert grammar.rules == (ParserRule("enum", "X", Keyword(text="a")),)


@pytest.mark.parametrize(
    "rule",
    [
        ParserRule("enum", "X", Keyword(text="a")),
        ParserRule("enum", None, Keyword(text="a")),
        ParserRule("enum", "returns", Keyword(text="a")),
        ParserRule("E", "T", RuleCall(rule_name="A"), enum=True),
        ParserRule("enum", "X", RuleCall(rule_name="A"), enum=True),
        ParserRule("returns", None, RuleCall(rule_name="A"), enum=True),
        ParserRule("returns", "T", RuleCall(rule_name="A"), enum=True),
    ],
    ids=[
        "parser-enum-returns",
        "parser-enum",
        "parser-enum-returns-returns",
        "enum-returns",
        "enum-named-enum",
        "enum-named-returns",
        "enum-named-returns-returns",
    ],
)
def test_enum_and_returns_readings_round_trip(rule):
    grammar = Grammar(rules=(rule,))
    printed = print_grammar(grammar)
    assert parse_grammar(printed) == grammar
    assert rule_signature(rule) == normalized_tokens(print_rule(rule))


def test_names_the_parser_reads_print_and_reparse():
    """Unicode, numeral-led, digit-led and qualified names print as the lexer
    reads them."""
    body = Group(
        children=(
            Keyword(text="k"),
            Assignment(feature="ñ", terminal=RuleCall(rule_name="1.5")),
            Assignment(feature="x", operator="+=", terminal=CrossReference(type_name="a.1.b", terminal_name="é")),
            ActionAnnotation(type_name="Ü"),
            RuleCall(rule_name="p::é"),
            Assignment(feature="½x", terminal=RuleCall(rule_name="Ⅻ")),
        )
    )
    rule = ParserRule("é", "ecore::Ü", body)
    printed = print_rule(rule)
    assert printed == "é returns ecore::Ü:\n    'k' ñ=1.5\n    x+=[a.1.b|é]\n    {Ü}\n    p::é\n    ½x=Ⅻ;"
    assert parse_grammar(printed) == Grammar(rules=(rule,))
    assert rule_signature(rule) == normalized_tokens(printed)


@pytest.mark.parametrize(
    "keyword,printed",
    [
        (Keyword(text="a'b", quote="'"), "\"a'b\""),
        (Keyword(text='a"b', quote='"'), "'a\"b'"),
        (Keyword(text="a\\'b", quote="'"), "'a\\'b'"),
        (Keyword(text="a'b", quote='"'), "\"a'b\""),
    ],
)
def test_keyword_prints_in_the_other_quote_only_when_its_own_does_not_fit(keyword, printed):
    rule = ParserRule("R", None, keyword)
    assert print_rule(rule) == f"R:\n    {printed};"
    reparsed = parse_grammar(print_rule(rule))
    assert reparsed.rules[0].body.text == keyword.text
    assert rule_signature(rule) == ["R", ":", "'" + keyword.text + "'", ";"]


@pytest.mark.parametrize(
    "rule",
    [
        ParserRule("R", None, Keyword(text="a'b\"c")),
        ParserRule("R", None, Keyword(text="back\\")),
        ParserRule("R", None, Keyword(text="new\nline")),
        ParserRule("R", None, Keyword(text="cr\rx")),
        ParserRule("R", None, RuleCall(rule_name="x y")),
        ParserRule("R", None, RuleCall(rule_name="")),
        ParserRule("R", None, RuleCall(rule_name="a::")),
        ParserRule("R", None, RuleCall(rule_name="¬")),
        ParserRule("R", None, Assignment(feature="p::T")),
        ParserRule("R", None, Assignment(feature="x", operator=":=")),
        ParserRule("R", None, ActionAnnotation(type_name="a.b")),
        ParserRule("R", None, CrossReference(type_name="T", terminal_name="a.b")),
        ParserRule("a.b", None, Keyword(text="k")),
        ParserRule("R", "x/*y*/", Keyword(text="k")),
        ParserRule("R", None, Group(children=())),
        ParserRule("R", None, Group(children=(Keyword(text="k"), Alternatives(branches=())))),
    ],
)
def test_values_that_do_not_print_raise_the_same_error_when_signed(rule):
    with pytest.raises(UnprintableError):
        print_rule(rule)
    with pytest.raises(UnprintableError):
        rule_signature(rule)
    assert issubclass(UnprintableError, ValueError)


def test_group_with_two_brace_pairs_prints_on_one_line():
    """Not a braced group (see test_model): no brace layout, one line."""
    a, b = RuleCall(rule_name="a"), RuleCall(rule_name="b")
    group = Group(children=(Keyword(text="{"), a, Keyword(text="}"), Keyword(text="{"), b, Keyword(text="}")))
    rule = ParserRule("R", None, Group(children=(Keyword(text="r"), group)))
    assert print_rule(rule) == "R:\n    'r'\n    ('{' a '}' '{' b '}');"


_GRAMMARISH = st.text(
    alphabet=st.sampled_from(list("abcXY_ ='\"(){}[]|?*+;:,=>\n\t/")), max_size=120
)


@settings(max_examples=150, deadline=None)
@given(text=_GRAMMARISH)
def test_parser_never_raises_on_junk(text):
    result = parse_grammar(text)
    assert isinstance(result, (Grammar, list))
    if isinstance(result, list):
        assert result, "failure must carry at least one diagnostic"
        line_count = text.count("\n") + 1
        for diagnostic in result:
            assert 1 <= diagnostic.span.start_line <= line_count
            assert diagnostic.message


@settings(max_examples=100, deadline=None)
@given(text=_GRAMMARISH)
def test_junk_that_parses_survives_round_trip(text):
    result = parse_grammar(text)
    if not isinstance(result, Grammar):
        return
    printed = print_grammar(result)
    reparsed = parse_grammar(printed)
    assert isinstance(reparsed, Grammar)
    assert reparsed == result


_BACKTICK_SOUP = st.lists(
    st.sampled_from(
        ["`", "```", "terminal", "T", ":", ";", "A", "x=ID", "'s'", "'", "/*", "*/", "//", "\n",
         "grammar a.B\n"]
    ),
    max_size=25,
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(text=_BACKTICK_SOUP)
def test_surely_unparsable_text_never_parses(text):
    """Reply extraction skips parsing a text that ``_surely_unparsable``
    flags, so it may flag only texts that ``parse_grammar`` rejects."""
    if _surely_unparsable(text):
        assert isinstance(parse_grammar(text), list)


def _expression_strategy():
    leaves = st.one_of(
        st.builds(
            Keyword,
            text=st.sampled_from(["a", "kw", "{", "}", ",", ";", "&"]),
            quote=st.sampled_from(["'", '"']),
        ),
        st.builds(RuleCall, rule_name=st.sampled_from(["ID", "Thing", "EString"])),
        st.builds(ActionAnnotation, type_name=st.just("Node")),
        st.builds(
            CrossReference,
            type_name=st.sampled_from(["", "T", "p::T"]),
            terminal_name=st.sampled_from([None, "ID"]),
        ),
    )

    def attach(node_strategy):
        return st.builds(
            lambda node, card, pred: replace(node, cardinality=card, predicated=pred),
            node_strategy,
            st.sampled_from(list(Cardinality)),
            st.booleans(),
        )

    def compounds(children):
        non_empty = st.lists(children, min_size=1, max_size=4)
        return st.one_of(
            attach(st.builds(lambda kids: Group(children=tuple(kids)), non_empty)),
            attach(st.builds(lambda kids: Alternatives(branches=tuple(kids)), non_empty)),
            attach(
                st.builds(
                    lambda feature, operator, terminal: Assignment(
                        feature=feature, operator=operator, terminal=terminal
                    ),
                    st.sampled_from(["name", "items"]),
                    st.sampled_from(["=", "+=", "?="]),
                    st.one_of(
                        st.builds(Keyword, text=st.just("lit")),
                        st.builds(RuleCall, rule_name=st.just("ID")),
                    ),
                )
            ),
        )

    return st.recursive(attach(leaves), compounds, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(body=_expression_strategy())
def test_printed_model_values_reach_fixpoint(body):
    grammar = Grammar(rules=(ParserRule("R", "R", body),))
    printed = print_grammar(grammar)
    once = parse_grammar(printed)
    assert isinstance(once, Grammar), printed
    reprinted = print_grammar(once)
    twice = parse_grammar(reprinted)
    assert isinstance(twice, Grammar)
    assert twice == once
    assert print_grammar(twice) == reprinted


def test_token_stability_over_corpus():
    grammars = corpus_grammars()
    for i, (name_a, a) in enumerate(grammars):
        for name_b, b in grammars[i:]:
            same_tokens = normalized_tokens(print_grammar(a)) == normalized_tokens(
                print_grammar(b)
            )
            structurally_equal = a == b
            if structurally_equal:
                assert same_tokens, f"{name_a} vs {name_b}"
            if same_tokens and name_a.split("_")[0] != name_b.split("_")[0]:
                assert structurally_equal, f"{name_a} vs {name_b}"


# -- comparison kernel ------------------------------------------------------


def _tokens_or_error(fn, rule):
    try:
        return fn(rule)
    except Exception as err:  # the reference path may raise; so must the emitter
        return type(err)


def assert_signature_matches_printing(rule):
    """rule_signature is the normalized token stream of the printed rule."""
    expected = _tokens_or_error(lambda r: normalized_tokens(print_rule(r)), rule)
    assert _tokens_or_error(rule_signature, rule) == expected, print_rule(rule)


_FIXTURE_RULES = [rule for _, grammar in corpus_grammars() for rule in grammar.rules]


def test_signature_matches_printing_on_every_fixture_rule():
    assert any(rule.enum for rule in _FIXTURE_RULES)
    for rule in _FIXTURE_RULES:
        assert_signature_matches_printing(rule)


#: Names and keyword texts that print and lex in every way the emitter has
#: to mirror: plain and qualified names, names the lexer would split or
#: merge with their neighbours, and texts with quotes, escapes or newlines.
_ODD_TEXTS = [
    "a", "Thing", "_x1", "p::T", "a.b.c", "ecore::EString", "x y", "1.5", "9lives",
    "é", "Ⅻ", "", "a-b", "//", "/*", "=>", "a'b", 'a"b', "back\\", "tab\t", "new\nline",
    "{", "}", ",", ";", "'", '"', "a:", ":a", "a.", "::",
]
_ODD = st.sampled_from(_ODD_TEXTS)


def _odd_expression_strategy():
    leaves = st.one_of(
        st.builds(Keyword, text=_ODD, quote=st.sampled_from(["'", '"', "'", "`"])),
        st.builds(RuleCall, rule_name=_ODD),
        st.builds(ActionAnnotation, type_name=_ODD),
        st.builds(CrossReference, type_name=_ODD, terminal_name=st.none() | _ODD),
    )

    def attach(node_strategy):
        return st.builds(
            lambda node, card, pred: replace(node, cardinality=card, predicated=pred),
            node_strategy,
            st.sampled_from(list(Cardinality)),
            st.booleans(),
        )

    def compounds(children):
        kids = st.lists(children, max_size=4)
        return st.one_of(
            attach(st.builds(lambda k: Group(children=tuple(k)), kids)),
            attach(st.builds(lambda k: Alternatives(branches=tuple(k)), kids)),
            attach(
                st.builds(
                    Assignment,
                    feature=_ODD,
                    operator=st.sampled_from(["=", "+=", "?=", "=", ":="]),
                    terminal=children,
                )
            ),
        )

    return st.recursive(attach(leaves), compounds, max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(
    name=_ODD,
    returns=st.none() | _ODD,
    enum=st.booleans(),
    body=_odd_expression_strategy(),
)
def test_signature_matches_printing_on_model_values(name, returns, enum, body):
    assert_signature_matches_printing(ParserRule(name, returns, body, enum=enum))


#: REPLACE_RULE bodies with qualified names and both quote styles.
_BODIES = ["'a' x=p::T", "\"q'\" y+=[a.b|ID] ';'?", "(k=ID | 'x')*", "{Node} '=>' n=ecore::EString"]


@pytest.mark.parametrize("kind", list(OpKind))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_signature_matches_printing_after_each_op_kind(kind, data):
    rule = data.draw(st.sampled_from(_FIXTURE_RULES))
    features = sorted({a.feature for _, a in assignments_of(rule)})
    scope = data.draw(
        st.sampled_from([rule_scope(rule.name)] + [attribute_scope(rule.name, f) for f in features])
    )
    present = sorted(
        {n.text for _, n in walk(rule.body) if isinstance(n, Keyword)}
        | {n.rule_name for _, n in walk(rule.body) if isinstance(n, RuleCall)}
    )
    params = {
        "text": data.draw(st.sampled_from(present + ["*"]) | _ODD),
        "from": data.draw(st.sampled_from(present) | _ODD) if present else data.draw(_ODD),
        "to": data.draw(st.none() | _ODD),
        "body": data.draw(st.sampled_from(_BODIES)),
        "returns": data.draw(_ODD),
    }
    try:
        adapted, _ = apply_single(TransformOp(kind, scope, params), Grammar(rules=(rule,)))
    except TransformError:
        return
    for new_rule in adapted.rules:
        assert_signature_matches_printing(new_rule)


@settings(max_examples=60, deadline=None)
@given(
    base=st.sampled_from([f"{name}_{side}.xtext" for name, _ in PAIRS for side in ("generated", "target")]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_signature_matches_printing_on_random_mutants(base, seed):
    mutation = random_mutation_pair(load_grammar(base), random.Random(seed))
    if mutation is None:
        return
    for rule in mutation[0].rules:
        assert_signature_matches_printing(rule)


def _reference_distance(a, b):
    """Full-matrix Levenshtein distance, kept independent of the library."""
    rows = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        rows[i][0] = i
    for j in range(len(b) + 1):
        rows[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            rows[i][j] = min(
                rows[i - 1][j] + 1,
                rows[i][j - 1] + 1,
                rows[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return rows[len(a)][len(b)]


#: A 2-token alphabet repeats tokens on almost every position; the 6-token
#: one mixes repeats with mismatches.
_ALPHABETS = (["a", "'{'"], ["a", "b", "c", "'{'", "'}'", ";"])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_token_distance_matches_full_matrix(data):
    """Spans of up to 150 tokens carry the bit vectors past 64 bits."""
    alphabet = data.draw(st.sampled_from(_ALPHABETS))

    def tokens(most: int) -> list[str]:
        size = data.draw(st.integers(min_value=0, max_value=most))
        return data.draw(st.lists(st.sampled_from(alphabet), min_size=size, max_size=size))

    prefix, left, right, suffix = tokens(8), tokens(150), tokens(150), tokens(8)
    a, b = prefix + left + suffix, prefix + right + suffix
    assert token_distance(a, b) == _reference_distance(a, b)
    assert token_distance(left, right) == _reference_distance(left, right)
    assert token_distance(b, a) == token_distance(a, b)


def test_token_distance_on_fixed_long_spans():
    """Seeded spans of 120 to 130 tokens over the 6-token alphabet carry the
    bit vectors past 64 bits in every run, and a failure has no search to
    shrink: the quick, steady check that the bit-vector kernel is exact."""
    for seed in range(3):
        rng = random.Random(seed)
        a, b = ([rng.choice(_ALPHABETS[1]) for _ in range(rng.randint(120, 130))] for _ in range(2))
        assert token_distance(a, b) == _reference_distance(a, b), seed
