import itertools
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import (
    PAIRS,
    _mutation_candidates,
    apply_single,
    assignments_of,
    find_rule,
    grammar_body_tokens,
    load_grammar,
    load_pair,
)
from xtadapt.model import (
    Alternatives,
    Assignment,
    Grammar,
    Keyword,
    RuleCall,
    grammar_problems,
    walk,
)
from xtadapt.parsing import (
    parse_grammar,
    print_grammar,
    print_rule,
    rule_signature,
)
from xtadapt.transform import (
    CATALOG,
    OpKind,
    Scope,
    ScopeKind,
    TransformError,
    TransformOp,
    TransformationConfig,
    apply_config,
    attribute_scope,
    config_from_json,
    config_to_json,
    rule_scope,
)


def op(kind, scope, **params):
    return TransformOp(kind, scope, params)


MISSION_CONFIG = TransformationConfig(
    entries=(
        op(OpKind.PROMOTE_ATTRIBUTE, attribute_scope("Mission", "shortName"), anchor="BEFORE_BRACES"),
        op(OpKind.MAKE_BRACES_OPTIONAL, rule_scope("Mission")),
        op(OpKind.ADD_TERMINATOR, attribute_scope("Mission", "category"), text=";"),
        op(OpKind.ADD_TERMINATOR, attribute_scope("Mission", "uuid"), text=";"),
        op(OpKind.ADD_TERMINATOR, attribute_scope("Mission", "name"), text=";"),
        op(OpKind.CHANGE_CALLED_RULE, attribute_scope("Mission", "uuid"), **{"from": "String0", "to": "UUID"}),
        op(OpKind.CHANGE_CALLED_RULE, attribute_scope("Mission", "name"), **{"from": "String0", "to": "Identifier"}),
        op(OpKind.REMOVE_KEYWORD, attribute_scope("Mission", "ownedComment"), text="ownedComment"),
        op(OpKind.CHANGE_SEPARATOR, attribute_scope("Mission", "ownedComment"), **{"from": ",", "to": None}),
        op(OpKind.REMOVE_BRACES, attribute_scope("Mission", "ownedComment")),
    ),
    provenance="hand-written replay of the Mission adaptation",
)


@pytest.fixture()
def mission_pair():
    return load_pair("mission")


def test_full_mission_config_reproduces_target(mission_pair):
    g1, g1prime = mission_pair
    adapted, report = apply_config(MISSION_CONFIG, g1)
    assert grammar_body_tokens(adapted) == grammar_body_tokens(g1prime)
    assert report.warnings == []


def test_owned_comment_trio(mission_pair):
    g1, g1prime = mission_pair
    config = TransformationConfig(
        entries=(
            op(OpKind.REMOVE_KEYWORD, attribute_scope("Mission", "ownedComment"), text="ownedComment"),
            op(OpKind.CHANGE_SEPARATOR, attribute_scope("Mission", "ownedComment"), **{"from": ",", "to": None}),
            op(OpKind.REMOVE_BRACES, attribute_scope("Mission", "ownedComment")),
        )
    )
    adapted, _ = apply_config(config, g1)
    line = print_rule(find_rule(adapted, "Mission"))
    assert "(ownedComment+=Comment (ownedComment+=Comment)*)?" in line
    target_line = print_rule(find_rule(g1prime, "Mission"))
    assert "(ownedComment+=Comment (ownedComment+=Comment)*)?" in target_line


def test_identity_config(mission_pair):
    g1, _ = mission_pair
    adapted, report = apply_config(TransformationConfig(), g1)
    assert adapted == g1
    assert report.outcomes == []


def test_purity_input_untouched(mission_pair):
    g1, _ = mission_pair
    snapshot = print_rule(g1.rules[0])
    apply_config(MISSION_CONFIG, g1)
    assert print_rule(g1.rules[0]) == snapshot


def test_promote_attribute_moves_before_braces(mission_pair):
    g1, _ = mission_pair
    promote = op(
        OpKind.PROMOTE_ATTRIBUTE, attribute_scope("Mission", "shortName"), anchor="BEFORE_BRACES"
    )
    adapted, matched = apply_single(promote, g1)
    assert matched == 1
    body = find_rule(adapted, "Mission").body
    kinds = []
    for child in body.children[:3]:
        if isinstance(child, Keyword):
            kinds.append(child.text)
        else:
            kinds.append(type(child).__name__)
    assert kinds == ["Mission", "Assignment", "{"]
    assert "'shortName'" not in print_rule(find_rule(adapted, "Mission"))


def test_remove_optionality_on_category(mission_pair):
    g1, _ = mission_pair
    remove = op(OpKind.REMOVE_OPTIONALITY, attribute_scope("Mission", "category"))
    adapted, matched = apply_single(remove, g1)
    assert matched == 1
    line = print_rule(find_rule(adapted, "Mission"))
    assert "('category' category=Identifier)\n" in line + "\n"
    assert "('category' category=Identifier)?" not in line


def test_change_separator_to_ampersand():
    grammar = parse_grammar(
        "X: 'extends' bounds+=XGenericType ( \",\" bounds+=XGenericType)*;"
    )
    change = op(
        OpKind.CHANGE_SEPARATOR, attribute_scope("X", "bounds"), **{"from": ",", "to": "&"}
    )
    adapted, matched = apply_single(change, grammar)
    assert matched == 1
    assert '("&" bounds+=XGenericType)*' in print_rule(adapted.rules[0]).replace("'", '"')


def test_no_match_is_warning_not_error(mission_pair):
    g1, _ = mission_pair
    config = TransformationConfig(
        entries=(op(OpKind.REMOVE_KEYWORD, attribute_scope("Gone", "x"), text="x"),)
    )
    adapted, report = apply_config(config, g1)
    assert adapted == g1
    assert len(report.warnings) == 1
    assert "NO_MATCH" in report.warnings[0]


@pytest.mark.parametrize(
    "kind,params",
    [
        (OpKind.REMOVE_KEYWORD, {"text": "ownedComment"}),
        (OpKind.REMOVE_BRACES, {}),
        (OpKind.REMOVE_OPTIONALITY, {}),
        (OpKind.CHANGE_CALLED_RULE, {"from": "String0", "to": "UUID"}),
    ],
)
def test_idempotent_operations(mission_pair, kind, params):
    g1, _ = mission_pair
    scope = (
        attribute_scope("Mission", "ownedComment")
        if kind in (OpKind.REMOVE_KEYWORD, OpKind.REMOVE_BRACES)
        else attribute_scope("Mission", "uuid")
    )
    operation = TransformOp(kind, scope, params)
    once, first = apply_single(operation, g1)
    twice, second = apply_single(operation, once)
    assert first > 0
    assert second == 0
    assert once == twice


@pytest.mark.parametrize("kind", list(OpKind))
def test_every_kind_without_in_scope_rule_returns_input(mission_pair, kind):
    g1, _ = mission_pair
    adapted, matched = apply_single(op(kind, rule_scope("Absent")), g1)
    assert adapted is g1
    assert matched == 0


def test_replace_rule_swaps_body(mission_pair):
    g1, _ = mission_pair
    replace = op(OpKind.REPLACE_RULE, rule_scope("Mission"), body="'mission' name=ID")
    adapted, matched = apply_single(replace, g1)
    assert matched == 1
    assert rule_signature(adapted.rules[0]) == rule_signature(
        parse_grammar("Mission returns Mission: 'mission' name=ID;").rules[0]
    )


def test_replace_rule_remove_deletes_rule():
    grammar = parse_grammar("A: 'a';\n\nB: 'b';")
    remove = op(OpKind.REPLACE_RULE, rule_scope("A"), remove=True)
    adapted, matched = apply_single(remove, grammar)
    assert matched == 1
    assert [r.name for r in adapted.rules] == ["B"]


def test_replace_rule_bad_body_raises(mission_pair):
    g1, _ = mission_pair
    bad = op(OpKind.REPLACE_RULE, rule_scope("Mission"), body="(((")
    with pytest.raises(TransformError) as err:
        apply_single(bad, g1)
    assert "REPLACE_RULE" in str(err.value)


def test_add_terminator_follows_every_occurrence():
    grammar = parse_grammar(
        "A: x=ID 'k' x=ID y=ID;\n\nP: {P} ':' (=> c=C | n=ID | (n=ID ':' c=C));"
    )
    adapted, report = apply_config(
        TransformationConfig(
            entries=(
                op(OpKind.ADD_TERMINATOR, attribute_scope("A", "x"), text=";"),
                op(OpKind.ADD_TERMINATOR, attribute_scope("P", "c"), text=";"),
            )
        ),
        grammar,
    )
    expected = parse_grammar(
        "A: x=ID ';' 'k' x=ID ';' y=ID;\n\nP: {P} ':' (=> c=C ';' | n=ID | (n=ID ':' c=C ';'));"
    )
    assert grammar_body_tokens(adapted) == grammar_body_tokens(expected)
    assert [o.matched for o in report.outcomes] == [2, 2]


def test_remove_braces_inside_the_optional_wrapper_prints_what_it_holds():
    """Removing the braces leaves the wrapper one plain group; the ``?``
    moves onto it, as the printed ``(('value' value=ID))?`` re-parses."""
    grammar = parse_grammar("Label: 'Label' '{' ('value' value=ID) '}';")
    config = TransformationConfig(
        entries=(
            op(OpKind.MAKE_BRACES_OPTIONAL, rule_scope("Label")),
            op(OpKind.REMOVE_BRACES, rule_scope("Label")),
        )
    )
    adapted, _ = apply_config(config, grammar)
    assert print_rule(adapted.rules[0]) == "Label:\n    'Label'\n    ('value' value=ID)?;"
    assert parse_grammar(print_grammar(adapted)) == adapted


def test_promote_attribute_on_a_braces_wrapper_body_lands_before_it():
    """A body that is the optional braces wrapper is one element of the
    rule's top-level sequence: the promoted assignment goes before it and is
    required, as it is after a leading keyword."""
    grammar = parse_grammar(
        "R: ('{' ('a' a=ID)? 'b' b=ID '}')?;\n\nS: 'S' ('{' ('a' a=ID)? 'b' b=ID '}')?;"
    )
    config = TransformationConfig(
        entries=tuple(
            op(OpKind.PROMOTE_ATTRIBUTE, attribute_scope(rule, "b"), anchor="BEFORE_BRACES")
            for rule in ("R", "S")
        )
    )
    adapted, report = apply_config(config, grammar)
    assert adapted == parse_grammar(
        "R: b=ID ('{' ('a' a=ID)? '}')?;\n\nS: 'S' b=ID ('{' ('a' a=ID)? '}')?;"
    )
    assert [o.matched for o in report.outcomes] == [1, 1]


def test_promote_attribute_out_of_a_marked_body_leaves_a_rest_that_reads_back():
    """The rest of a marked body becomes one element of the new sequence, in
    the shape its printing parses back to: ``(('k' x=A))?`` is ``('k' x=A)?``."""
    grammar = parse_grammar("R: (x=[T|ID] ('k' x=A))?;")
    promote = op(OpKind.PROMOTE_ATTRIBUTE, attribute_scope("R", "x"), anchor="BEFORE_BRACES")
    adapted, report = apply_config(TransformationConfig(entries=(promote,)), grammar)
    assert adapted == parse_grammar("R: ('k' x=A)? x=[T|ID];")
    assert parse_grammar(print_grammar(adapted)) == adapted
    assert [o.matched for o in report.outcomes] == [1]


def test_make_braces_optional_on_a_wrapped_region_matches_nothing():
    """The braces are optional already, whether the wrapper is the whole
    body or follows a leading keyword: no match, and no double wrap."""
    grammar = parse_grammar("R: ('{' 'a' a=ID '}')?;\n\nS: 'S' ('{' 'a' a=ID '}')?;")
    config = TransformationConfig(
        entries=tuple(op(OpKind.MAKE_BRACES_OPTIONAL, rule_scope(rule)) for rule in ("R", "S"))
    )
    adapted, report = apply_config(config, grammar)
    assert adapted == grammar
    assert [o.matched for o in report.outcomes] == [0, 0]


def test_make_braces_optional_wraps_only_the_rule_level_region():
    """Braces in a nested group or in an alternative are not the rule's
    brace region: the nested pair stays as it is, and a rule whose body is
    a choice has no region to wrap."""
    grammar = parse_grammar("R: 'R' '{' (x=ID '{' y=ID '}') '}';\n\nS: 'a' '{' a=ID '}' | 'b';")
    config = TransformationConfig(
        entries=tuple(op(OpKind.MAKE_BRACES_OPTIONAL, rule_scope(rule)) for rule in ("R", "S"))
    )
    adapted, report = apply_config(config, grammar)
    expected = parse_grammar("R: 'R' ('{' (x=ID '{' y=ID '}') '}')?;\n\nS: 'a' '{' a=ID '}' | 'b';")
    assert adapted == expected
    assert [o.matched for o in report.outcomes] == [1, 0]


def test_phase_order_bounds_example():
    grammar = parse_grammar(
        "X: 'bounds' '{' bounds+=XGenericType ( \",\" bounds+=XGenericType)* '}';"
    )
    entries = [
        op(OpKind.CHANGE_SEPARATOR, attribute_scope("X", "bounds"), **{"from": ",", "to": "&"}),
        op(OpKind.RENAME_KEYWORD, attribute_scope("X", "bounds"), **{"from": "bounds", "to": "extends"}),
        op(OpKind.REMOVE_BRACES, attribute_scope("X", "bounds")),
    ]
    expected = None
    for permutation in itertools.permutations(entries):
        adapted, _ = apply_config(TransformationConfig(entries=permutation), grammar)
        tokens = grammar_body_tokens(adapted)
        if expected is None:
            expected = tokens
        assert tokens == expected
    assert expected is not None
    assert "'extends'" in " ".join(expected)


def test_within_phase_disjoint_permutation(mission_pair):
    g1, _ = mission_pair
    entries = [
        op(OpKind.ADD_TERMINATOR, attribute_scope("Mission", "category"), text=";"),
        op(OpKind.ADD_TERMINATOR, attribute_scope("Mission", "uuid"), text=";"),
        op(OpKind.ADD_TERMINATOR, attribute_scope("Mission", "name"), text=";"),
    ]
    results = set()
    for permutation in itertools.permutations(entries):
        adapted, _ = apply_config(TransformationConfig(entries=permutation), g1)
        results.add(" ".join(grammar_body_tokens(adapted)))
    assert len(results) == 1


def test_output_satisfies_model_invariants(mission_pair):
    g1, _ = mission_pair
    adapted, _ = apply_config(MISSION_CONFIG, g1)
    from xtadapt.model import grammar_problems

    assert grammar_problems(adapted) == []


# -- config JSON ------------------------------------------------------------


def test_config_json_round_trip():
    text = config_to_json(MISSION_CONFIG)
    loaded = config_from_json(text)
    assert loaded.entries == MISSION_CONFIG.entries
    assert loaded.provenance == MISSION_CONFIG.provenance


def test_config_json_field_names():
    import json

    doc = json.loads(config_to_json(MISSION_CONFIG))
    assert set(doc) == {"provenance", "entries"}
    entry = doc["entries"][0]
    assert set(entry) == {"kind", "scope", "params"}
    assert entry["scope"]["kind"] == "ATTRIBUTE"
    assert entry["scope"]["rule"] == "Mission"
    assert entry["scope"]["feature"] == "shortName"


def test_config_json_rejects_unknown_kind():
    bad = '{"provenance": "", "entries": [{"kind": "EXPLODE", "scope": {"kind": "RULE", "rule": "A"}, "params": {}}]}'
    with pytest.raises(TransformError) as err:
        config_from_json(bad)
    assert "EXPLODE" in str(err.value)


def test_config_json_rejects_malformed_document():
    with pytest.raises(TransformError):
        config_from_json("{not json")
    with pytest.raises(TransformError):
        config_from_json('{"no_entries": true}')


@pytest.mark.parametrize(
    "kind,scope,params,fragment",
    [
        ("ADD_TERMINATOR", {"kind": "ATTRIBUTE", "rule": "A", "feature": "a"}, {}, "string 'text'"),
        ("ADD_TERMINATOR", {"kind": "ATTRIBUTE", "rule": "A", "feature": "a"}, {"text": 1}, "string 'text'"),
        ("RENAME_KEYWORD", {"kind": "RULE", "rule": "A"}, {"from": "a"}, "string 'to'"),
        ("CHANGE_CALLED_RULE", {"kind": "RULE", "rule": "A"}, {"to": "B"}, "string 'from'"),
        ("CHANGE_SEPARATOR", {"kind": "RULE", "rule": "A"}, {"from": ",", "to": 1}, "'to' must be"),
        ("REPLACE_RULE", {"kind": "RULE", "rule": "A"}, {}, "'body' param or 'remove': true"),
        ("REPLACE_RULE", {"kind": "RULE", "rule": "A"}, {"remove": False}, "'body' param"),
        ("REPLACE_RULE", {"kind": "RULE", "rule": "A"}, {"remove": "yes"}, "true or false"),
        ("REPLACE_RULE", {"kind": "RULE", "rule": "A"}, {"body": "'a'", "returns": [1]}, "'returns' must be a string"),
        ("REPLACE_RULE", {"kind": "RULE", "rule": "A"}, {"body": "'a'", "enum": 1}, "true or false"),
        ("REMOVE_BRACES", {"kind": "ATTRIBUTE", "rule": "A"}, {}, "needs a 'feature'"),
        ("REMOVE_BRACES", {"kind": "ATTRIBUTE", "feature": "a"}, {}, "needs a 'rule'"),
        ("REMOVE_BRACES", {"kind": "RULE"}, {}, "needs a 'rule'"),
    ],
)
def test_config_json_rejects_missing_params(kind, scope, params, fragment):
    doc = {"entries": [{"kind": kind, "scope": scope, "params": params}]}
    with pytest.raises(TransformError) as err:
        config_from_json(json.dumps(doc))
    assert fragment in str(err.value)
    assert str(err.value).startswith("entry 0: ")


@pytest.mark.parametrize(
    "kind,params",
    [
        ("RENAME_KEYWORD", {"from": "x", "to": "a'b\"c"}),
        ("ADD_TERMINATOR", {"text": "new\nline"}),
        ("CHANGE_SEPARATOR", {"from": ",", "to": "back\\"}),
        ("CHANGE_CALLED_RULE", {"from": "ID", "to": "x y"}),
        ("CHANGE_CALLED_RULE", {"from": "ID", "to": ""}),
        ("REPLACE_RULE", {"body": "'a'", "returns": "p::"}),
    ],
)
def test_config_json_rejects_params_that_do_not_print(kind, params):
    scope = {"kind": "ATTRIBUTE", "rule": "A", "feature": "a"}
    doc = {"entries": [{"kind": kind, "scope": scope, "params": params}]}
    with pytest.raises(TransformError, match="^entry 0: .* cannot be printed$"):
        config_from_json(json.dumps(doc))


def test_config_json_accepts_params_that_print():
    scope = {"kind": "RULE", "rule": "A"}
    entries = [
        ("RENAME_KEYWORD", {"from": "x", "to": "a'b"}),
        ("ADD_TERMINATOR", {"text": ""}),
        ("CHANGE_SEPARATOR", {"from": ",", "to": 'a"b'}),
        ("CHANGE_CALLED_RULE", {"from": "ID", "to": "é"}),
        ("CHANGE_CALLED_RULE", {"from": "ID", "to": "ecore::EString"}),
        ("CHANGE_CALLED_RULE", {"from": "ID", "to": "1.5"}),
        ("REPLACE_RULE", {"body": "'a'", "returns": "a.b"}),
    ]
    doc = {"entries": [{"kind": k, "scope": scope, "params": p} for k, p in entries]}
    assert len(config_from_json(json.dumps(doc)).entries) == len(entries)


def test_config_json_accepts_what_extract_writes():
    doc = {
        "entries": [
            {"kind": "CHANGE_SEPARATOR", "scope": {"kind": "ATTRIBUTE", "rule": "A", "feature": "b"},
             "params": {"from": ",", "to": None}},
            {"kind": "REPLACE_RULE", "scope": {"kind": "RULE", "rule": "B"}, "params": {"remove": True}},
            {"kind": "REPLACE_RULE", "scope": {"kind": "RULE", "rule": "A"},
             "params": {"body": "'a'", "returns": "", "enum": False}},
            {"kind": "REMOVE_BRACES", "scope": {"kind": "GRAMMAR"}, "params": {}},
        ]
    }
    assert len(config_from_json(json.dumps(doc)).entries) == 4


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_SCOPE = st.fixed_dictionaries(
    {"kind": st.sampled_from([k.value for k in ScopeKind]) | _JSON},
    optional={"rule": st.sampled_from(["A", "B"]) | _JSON, "feature": st.sampled_from(["a", "b"]) | _JSON},
)
_PARAMS = st.dictionaries(
    st.sampled_from(["text", "from", "to", "body", "remove", "returns"]),
    st.sampled_from(["'a'", "a", ",", "b+=B"]) | _JSON,
    max_size=3,
)
_ENTRY = st.fixed_dictionaries(
    {},
    optional={
        "kind": st.sampled_from([k.value for k in OpKind]) | _JSON,
        "scope": _SCOPE | _JSON,
        "params": _PARAMS | _JSON,
    },
)
#: An entry whose kind, scope and params have the right JSON types, so the
#: per-kind param and scope checks decide whether it loads.
_TYPED_ENTRY = st.fixed_dictionaries(
    {"kind": st.sampled_from([k.value for k in OpKind]), "scope": _SCOPE, "params": _PARAMS}
)
_CONFIG = st.fixed_dictionaries(
    {"entries": st.lists(_TYPED_ENTRY | _ENTRY | _JSON, max_size=3) | _JSON},
    optional={"provenance": _JSON},
)


@settings(max_examples=300, deadline=None)
@given(doc=_JSON | _CONFIG)
@example(doc={"provenance": ["x"], "entries": []})
def test_config_from_json_fails_closed(doc):
    """Any JSON value loads or raises TransformError, and a loaded config
    keeps its provenance as written and applies or raises TransformError."""
    try:
        config = config_from_json(json.dumps(doc))
    except TransformError:
        return
    assert config.provenance == doc.get("provenance", "")
    for entry in config.entries:
        if entry.scope.kind is not ScopeKind.GRAMMAR:
            assert isinstance(entry.scope.rule, str) and entry.scope.rule
        if entry.scope.kind is ScopeKind.ATTRIBUTE:
            assert isinstance(entry.scope.feature, str) and entry.scope.feature
        if entry.kind is OpKind.ADD_TERMINATOR:
            assert isinstance(entry.param("text"), str)
        if entry.kind is OpKind.REPLACE_RULE:
            assert entry.param("remove") is True or isinstance(entry.param("body"), str)
            assert isinstance(entry.param("returns", ""), str)
    grammar = parse_grammar("A: 'a' a=ID ('{' b+=B (',' b+=B)* '}')?;\n\nB: 'b' name=ID;")
    try:
        apply_config(config, grammar)
    except TransformError:
        pass


#: Well-formed JSON no config can be: a document nested inside at least one
#: array, up to 5,000 deep (past the decoder's recursion limit on some
#: interpreters), and an integer longer than the 4,300 digits Python converts.
_DEEP = st.builds(
    lambda depth, doc: "[" * depth + json.dumps(doc) + "]" * depth,
    st.integers(min_value=1, max_value=5_000),
    _JSON | _CONFIG,
)
_NUMBER_SLOT = "\x00number"
_LONG_NUMBER = st.builds(
    lambda doc, digits: json.dumps(doc).replace(json.dumps(_NUMBER_SLOT), digits),
    st.sampled_from([
        _NUMBER_SLOT,
        {"entries": [], "provenance": _NUMBER_SLOT},
        {"entries": [{"kind": "REMOVE_KEYWORD", "scope": {"kind": "GRAMMAR"},
                      "params": {"text": _NUMBER_SLOT}}]},
    ]),
    st.integers(min_value=4_301, max_value=6_000).map(lambda n: "7" * n),
)


@settings(max_examples=100, deadline=None)
@given(text=_DEEP | _LONG_NUMBER)
def test_config_from_json_rejects_deep_or_huge_json(text):
    """Deep nesting and overlong integers raise TransformError, whether or
    not the decoder itself rejects them."""
    with pytest.raises(TransformError, match="^invalid config JSON: "):
        config_from_json(text)


def _one_op_at_a_time(config, grammar):
    """apply_config's definition: apply_single per entry, in phase order."""
    ordered = sorted(config.entries, key=lambda entry: CATALOG[entry.kind].phase)
    outcomes = []
    for entry in ordered:
        grammar, matched = apply_single(entry, grammar)
        outcomes.append((entry, matched))
    problems = grammar_problems(grammar)
    if problems:
        raise TransformError("config application broke grammar invariants: " + "; ".join(problems))
    return grammar, outcomes


_BATCH_BASES = [load_pair(name)[0] for name, _ in PAIRS] + [
    parse_grammar("A: 'a' a=ID ('{' b+=B (',' b+=B)* '}')?;\n\nB: 'b' name=ID;\n\nB: 'B' b=ID;")
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_apply_config_equals_one_op_at_a_time(data):
    """One pass over the rules gives the same grammar, match counts, outcome
    order and first error as applying the entries one at a time."""
    grammar = data.draw(st.sampled_from(_BATCH_BASES))
    names = [rule.name for rule in grammar.rules] + ["Absent"]
    extra = st.sampled_from(
        [op(OpKind.REPLACE_RULE, rule_scope(n), remove=True) for n in names]
        + [op(OpKind.REPLACE_RULE, rule_scope(n), body="'x' x=ID") for n in names]
        + [op(OpKind.REPLACE_RULE, rule_scope(n), body="(((") for n in names]
        + [op(OpKind.REPLACE_RULE, attribute_scope(n, "x"), body="'x'") for n in names]
        + [op(OpKind.REMOVE_BRACES, Scope(ScopeKind.GRAMMAR))]
        + [op(OpKind.REMOVE_KEYWORD, Scope(ScopeKind.GRAMMAR), text=t) for t in ("{", ",", "*")]
        + [op(OpKind.ADD_OPTIONALITY, Scope(ScopeKind.GRAMMAR))]
    )
    entries = data.draw(
        st.lists(st.sampled_from(_mutation_candidates(grammar)) | extra, max_size=10)
    )
    config = TransformationConfig(entries=tuple(entries))
    try:
        expected, outcomes = _one_op_at_a_time(config, grammar)
    except TransformError as err:
        with pytest.raises(TransformError) as raised:
            apply_config(config, grammar)
        assert str(raised.value) == str(err)
        return
    adapted, report = apply_config(config, grammar)
    assert adapted == expected
    assert [(o.op, o.matched) for o in report.outcomes] == outcomes


_PRINT_BASES = [grammar for name, _ in PAIRS for grammar in load_pair(name)]
#: Param texts that print, print only in the other quote, or do not print.
_PARAM_TEXTS = [
    "x", "a'b", 'a"b', "a'b\"c", "é", "1.5", "p::T", "a.b", "x y", "", "back\\", "tab\t",
    "new\nline", "cr\r", "{", ";", "=>", "a.", "::", "Ⅻ", "//",
]
#: The kinds that write a param into the rule.
_WRITING_KINDS = ["RENAME_KEYWORD", "ADD_TERMINATOR", "CHANGE_SEPARATOR", "CHANGE_CALLED_RULE", "REPLACE_RULE"]
_PARAM_BODIES = ["'a' x=p::T", "\"q'\" y+=[a.b|ID] ';'?", "(k=é | 'x')*", "'a\rb'", "{"]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_loaded_config_prints_text_that_reparses(data):
    """Any config that loads, applied to a fixture rule, prints text that
    re-parses to an equal grammar."""
    rule = data.draw(st.sampled_from([r for g in _PRINT_BASES for r in g.rules]))
    present = sorted(
        {n.text for _, n in walk(rule.body) if isinstance(n, Keyword)}
        | {n.rule_name for _, n in walk(rule.body) if isinstance(n, RuleCall)}
    )
    odd = st.sampled_from(_PARAM_TEXTS) | st.text(max_size=3)
    scopes = [{"kind": "RULE", "rule": rule.name}] + [
        {"kind": "ATTRIBUTE", "rule": rule.name, "feature": a.feature}
        for _, a in assignments_of(rule)
    ]
    entry = st.fixed_dictionaries(
        {
            "kind": st.sampled_from(_WRITING_KINDS) | st.sampled_from([k.value for k in OpKind]),
            "scope": st.sampled_from(scopes[:1]) | st.sampled_from(scopes[1:] or scopes),
            "params": st.fixed_dictionaries(
                {
                    "text": st.sampled_from(present or ["x"]) | odd,
                    "from": st.sampled_from(present or ["x"]),
                    "to": st.none() | odd | st.sampled_from(_PARAM_TEXTS),
                    "body": st.sampled_from(_PARAM_BODIES),
                },
                optional={"returns": odd, "enum": st.booleans()},
            ),
        }
    )
    doc = {"entries": data.draw(st.lists(entry, min_size=1, max_size=2))}
    try:
        adapted, _ = apply_config(config_from_json(json.dumps(doc)), Grammar(rules=(rule,)))
    except TransformError:
        return
    printed = print_grammar(adapted)
    assert parse_grammar(printed) == adapted, printed


def test_promote_attribute_collapses_the_branch_it_shrinks_to_one_child():
    grammar = load_grammar("port_target.xtext")
    promote = op(OpKind.PROMOTE_ATTRIBUTE, attribute_scope("Port", "compass_pt"), anchor="BEFORE_BRACES")
    for _ in range(2):
        grammar, matched = apply_single(promote, grammar)
        assert matched == 1
        assert parse_grammar(print_grammar(grammar)) == grammar
    (choice,) = [n for _, n in walk(grammar.rules[0].body) if isinstance(n, Alternatives)]
    assert [type(branch) for branch in choice.branches] == [Assignment, Assignment]


@pytest.mark.parametrize(
    "text, entry",
    [
        ("R: 'k' (x=A);", op(OpKind.REMOVE_KEYWORD, rule_scope("R"), text="k")),
        ("R: ('k')? (x=A);", op(OpKind.REMOVE_KEYWORD, rule_scope("R"), text="k")),
        ("R: 'a' | 'k' (x=A);", op(OpKind.REMOVE_KEYWORD, rule_scope("R"), text="k")),
        ("R: 'a' (b=B) | 'c';", op(OpKind.REMOVE_KEYWORD, rule_scope("R"), text="a")),
        ("R: '{' (x=A) '}';", op(OpKind.REMOVE_BRACES, rule_scope("R"))),
        ("R: (x=A)?;", op(OpKind.REMOVE_OPTIONALITY, attribute_scope("R", "x"))),
        ("R: 'a' | (x=A)?;", op(OpKind.REMOVE_OPTIONALITY, attribute_scope("R", "x"))),
        ("R: '{' a=A '}';", op(OpKind.MAKE_BRACES_OPTIONAL, rule_scope("R"))),
        ("R: x=A;", op(OpKind.ADD_TERMINATOR, attribute_scope("R", "x"), text=";")),
    ],
)
def test_rewritten_branch_prints_text_that_reparses_equal(text, entry):
    """A body or alternative that an op leaves a plain single-child group is
    settled to its child, the tree its printing parses back to."""
    adapted, matched = apply_single(entry, parse_grammar(text))
    assert matched
    assert parse_grammar(print_grammar(adapted)) == adapted, print_grammar(adapted)


@pytest.mark.parametrize(
    "entry",
    [
        op(OpKind.RENAME_KEYWORD, rule_scope("R"), **{"from": "k", "to": "a'b"}),
        op(OpKind.CHANGE_SEPARATOR, rule_scope("R"), **{"from": ",", "to": "a'b"}),
        op(OpKind.ADD_TERMINATOR, attribute_scope("R", "x"), text="a'b"),
    ],
)
def test_written_keyword_takes_the_quote_it_prints_in(entry):
    """A keyword text that does not fit the keyword's quote is written in the
    other quote, the one it prints and parses back in."""
    adapted, matched = apply_single(entry, parse_grammar("R: 'k' x=A (',' x=A)*;"))
    assert matched
    assert parse_grammar(print_grammar(adapted)) == adapted, print_grammar(adapted)


def _ops_by_kind(grammar: Grammar) -> dict[OpKind, list[TransformOp]]:
    """Ops of every kind that apply to rules of ``grammar``."""
    ops = _mutation_candidates(grammar)
    for rule in grammar.rules:
        ops.append(op(OpKind.REPLACE_RULE, rule_scope(rule.name), body="'x' (x=ID | 'y' y+=ID)*"))
        ops.extend(
            op(OpKind.PROMOTE_ATTRIBUTE, attribute_scope(rule.name, a.feature), anchor="BEFORE_BRACES")
            for _, a in assignments_of(rule)
        )
    by_kind: dict[OpKind, list[TransformOp]] = {}
    for entry in ops:
        by_kind.setdefault(entry.kind, []).append(entry)
    return by_kind


def test_every_op_kind_prints_grammars_that_reparse_equal():
    seen = set()
    for grammar in _PRINT_BASES:
        for kind, ops in _ops_by_kind(grammar).items():
            for entry in ops:
                adapted, _ = apply_single(entry, grammar)
                seen.add(kind)
                assert parse_grammar(print_grammar(adapted)) == adapted, entry
    assert seen == set(OpKind)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_op_sequences_print_grammars_that_reparse_equal(data):
    grammar = data.draw(st.sampled_from(_PRINT_BASES))
    by_kind = _ops_by_kind(grammar)
    kinds = data.draw(st.lists(st.sampled_from(sorted(by_kind, key=lambda k: k.value)), min_size=1, max_size=3))
    entries = tuple(data.draw(st.sampled_from(by_kind[kind])) for kind in kinds)
    try:
        adapted, _ = apply_config(TransformationConfig(entries=entries), grammar)
    except TransformError:
        return
    assert parse_grammar(print_grammar(adapted)) == adapted
