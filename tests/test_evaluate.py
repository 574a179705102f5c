import importlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import build_trio, corpus_grammars, load_grammar, load_pair, random_mutation_pair
from test_rewrite import _ASSIGNMENT, _CARD, _KEYWORD, _MARKS
from xtadapt.evaluate import (
    AdaptationType,
    RuleStatus,
    _pair_types,
    _required_rules,
    _signature_scan,
    _Signatures,
    evaluate,
    format_percent,
    report_table,
)
from xtadapt.model import (
    Alternatives,
    Assignment,
    CrossReference,
    Group,
    Keyword,
    ParserRule,
    RuleCall,
    is_brace,
    walk,
)
from xtadapt.parsing import parse_grammar, rule_signature
from xtadapt.transform import _is_word

#: The module, which the package's `evaluate` function shadows.
evaluate_module = importlib.import_module("xtadapt.evaluate")


def _rac(report):
    """(n_total, n_correct, rac) of a report."""
    return report.n_total, report.n_correct, report.rac


def _similarity(report):
    """(same, diff, percent) of a report."""
    return report.same, report.diff, report.percent


# -- rule comparisons -------------------------------------------------------


def test_compare_identical_grammar():
    target = load_grammar("mission_target.xtext")
    comparisons = evaluate(target, target, target).comparisons
    assert [(c.rule_name, c.status, c.token_distance) for c in comparisons] == [
        ("Mission", RuleStatus.SAME, 0)
    ]


def test_compare_differing_rule():
    g1, g1prime = load_pair("mission")
    comparisons = evaluate(g1, g1, g1prime).comparisons
    assert comparisons[0].status is RuleStatus.DIFF
    assert comparisons[0].token_distance > 0


def test_compare_missing_and_extra():
    small = parse_grammar("A: 'a';")
    big = parse_grammar("A: 'a';\n\nB: 'b';")
    comparisons = evaluate(small, small, big).comparisons
    assert [(c.rule_name, c.status) for c in comparisons] == [
        ("A", RuleStatus.SAME),
        ("B", RuleStatus.MISSING_IN_CANDIDATE),
    ]
    comparisons = evaluate(big, big, small).comparisons
    assert ("B", RuleStatus.EXTRA_IN_CANDIDATE) in [
        (c.rule_name, c.status) for c in comparisons
    ]


def test_same_iff_distance_zero():
    g2, candidate, target = build_trio(6, 4, 2)
    for comparison in evaluate(g2, candidate, target).comparisons:
        assert (comparison.status is RuleStatus.SAME) == (comparison.token_distance == 0)


# -- RAC ------------------------------------------------------------------


def test_rac_dot_scale():
    g2, candidate, target = build_trio(24, 19, 16)
    n_total, n_correct, rac = _rac(evaluate(g2, candidate, target))
    assert (n_total, n_correct) == (19, 16)
    assert abs(rac - 16 / 19) < 1e-9
    assert format_percent(rac) == "84.21%"


def test_rac_xcore_scale():
    g2, candidate, target = build_trio(40, 32, 20)
    n_total, n_correct, rac = _rac(evaluate(g2, candidate, target))
    assert (n_total, n_correct) == (32, 20)
    assert format_percent(rac) == "62.50%"


def test_rac_nothing_adapted_is_zero():
    g2, _, target = build_trio(10, 4, 0)
    n_total, n_correct, rac = _rac(evaluate(g2, g2, target))
    assert n_total == 4
    assert n_correct == 0
    assert rac == 0.0
    assert format_percent(rac) == "0.00%"


def test_rac_vacuous_when_no_adaptation_required():
    target = load_grammar("mission_target.xtext")
    n_total, n_correct, rac = _rac(evaluate(target, target, target))
    assert n_total == 0
    assert rac == 1.0
    assert format_percent(rac) == "100%"


def test_rac_candidate_equal_target_is_full():
    g2, _, target = build_trio(12, 7, 0)
    _, n_correct, rac = _rac(evaluate(g2, target, target))
    assert n_correct == 7
    assert rac == 1.0


# -- similarity -------------------------------------------------------------


def test_similarity_xcore_scale():
    _, candidate, target = build_trio(40, 32, 20)
    same, diff, percent = _similarity(evaluate(candidate, candidate, target))
    assert (same, diff) == (28, 12)
    assert format_percent(percent) == "70.00%"


def test_similarity_dot_scale():
    _, candidate, target = build_trio(24, 19, 16)
    same, diff, percent = _similarity(evaluate(candidate, candidate, target))
    assert (same, diff) == (21, 3)
    assert format_percent(percent) == "87.50%"


def test_similarity_identity_over_corpus():
    from corpus import corpus_grammars

    for name, grammar in corpus_grammars():
        same, diff, percent = _similarity(evaluate(grammar, grammar, grammar))
        assert (same, diff, percent) == (len(grammar.rules), 0, 1.0), name


def test_similarity_missing_counts_as_diff():
    small = parse_grammar("A: 'a';")
    big = parse_grammar("A: 'a';\n\nB: 'b';")
    same, diff, _ = _similarity(evaluate(small, small, big))
    assert (same, diff) == (1, 1)


def test_similarity_extra_rules_do_not_reduce_percent():
    target = parse_grammar("A: 'a';")
    candidate = parse_grammar("A: 'a';\n\nB: 'b';")
    same, diff, percent = _similarity(evaluate(candidate, candidate, target))
    assert (same, diff, percent) == (1, 0, 1.0)


def test_monotonicity_of_correct_counts():
    previous_correct = -1
    previous_same = -1
    for correct in range(0, 5):
        g2, candidate, target = build_trio(8, 4, correct)
        report = evaluate(g2, candidate, target)
        n_correct, same = report.n_correct, report.same
        assert n_correct > previous_correct
        assert same > previous_same
        previous_correct, previous_same = n_correct, same


# -- adaptation types -------------------------------------------------------


def test_classify_mission_candidate_equals_target():
    g2, target = load_pair("mission")
    per_type = evaluate(g2, target, target).per_type
    expected = {
        AdaptationType.ATTRIBUTE_PROMOTION,
        AdaptationType.TYPE_SYSTEM_ADAPTATION,
        AdaptationType.SEPARATOR_MODIFICATION,
        AdaptationType.KEYWORD_REMOVAL,
        AdaptationType.BRACE_OPTIONALITY_REMOVAL,
    }
    assert set(per_type) == expected
    for counts in per_type.values():
        assert (counts.occurrences, counts.correct, counts.incorrect) == (1, 1, 0)


def test_classify_nothing_realized():
    g2, target = load_pair("mission")
    per_type = evaluate(g2, g2, target).per_type
    assert per_type
    for counts in per_type.values():
        assert counts.correct == 0
        assert counts.incorrect == counts.occurrences


def test_classify_occ_equals_cor_plus_inc():
    g2, candidate, target = build_trio(10, 6, 3)
    per_type = evaluate(g2, candidate, target).per_type
    for counts in per_type.values():
        assert counts.occurrences == counts.correct + counts.incorrect


def test_classify_fallback_pair_uses_signature_scan():
    g2, target = load_pair("port")
    per_type = evaluate(g2, target, target).per_type
    assert AdaptationType.BRACE_OPTIONALITY_REMOVAL in per_type
    assert AdaptationType.KEYWORD_REMOVAL in per_type
    for counts in per_type.values():
        assert counts.incorrect == 0


def _ref_rule_facts(rule):
    keywords, features, calls, crossrefs, operators = [], [], [], [], []
    braces = 0
    cards = 0
    for _, node in walk(rule.body):
        if is_brace(node):
            braces += 1
        elif isinstance(node, Keyword):
            keywords.append(node.text)
        elif isinstance(node, Assignment):
            features.append(node.feature)
            operators.append((node.feature, node.operator))
            if isinstance(node.terminal, RuleCall):
                calls.append((node.feature, node.terminal.rule_name))
            elif isinstance(node.terminal, CrossReference):
                crossrefs.append(
                    (node.feature, node.terminal.type_name, node.terminal.terminal_name)
                )
        if node.cardinality.value:
            cards += 1
    return keywords, features, calls, crossrefs, operators, braces, cards


def _ref_signature_scan(a, b):
    """The scan as first written, with a list count per keyword: the
    reference that the multiset comparison is held to."""
    kw_a, feat_a, calls_a, xref_a, ops_a, braces_a, cards_a = _ref_rule_facts(a)
    kw_b, feat_b, calls_b, xref_b, ops_b, braces_b, cards_b = _ref_rule_facts(b)
    types = set()
    if braces_a != braces_b or cards_a != cards_b:
        types.add(AdaptationType.BRACE_OPTIONALITY_REMOVAL)
    removed_words = [t for t in kw_a if _is_word(t) and kw_a.count(t) > kw_b.count(t)]
    added_words = [t for t in kw_b if _is_word(t) and kw_b.count(t) > kw_a.count(t)]
    if removed_words or added_words:
        types.add(AdaptationType.KEYWORD_REMOVAL)
    removed_punct = [t for t in kw_a if not _is_word(t) and kw_a.count(t) > kw_b.count(t)]
    added_punct = [t for t in kw_b if not _is_word(t) and kw_b.count(t) > kw_a.count(t)]
    if removed_punct or added_punct:
        types.add(AdaptationType.SEPARATOR_MODIFICATION)
    ordered_a = list(dict.fromkeys(feat_a))
    ordered_b = list(dict.fromkeys(feat_b))
    shared = [f for f in ordered_a if f in ordered_b]
    if [f for f in ordered_b if f in shared] != shared:
        types.add(AdaptationType.ATTRIBUTE_PROMOTION)
    if sorted(calls_a) != sorted(calls_b) or Counter(xref_a) != Counter(xref_b):
        types.add(AdaptationType.TYPE_SYSTEM_ADAPTATION)
    if sorted(ops_a) != sorted(ops_b):
        types.add(AdaptationType.TYPE_SYSTEM_ADAPTATION)
    return types


_FIXTURE_GRAMMARS = [grammar for _, grammar in corpus_grammars()]
_FIXTURE_RULES = [rule for grammar in _FIXTURE_GRAMMARS for rule in grammar.rules]


def _empty_shell(name):
    """What the reference scans for a missing rule: a body with no keyword,
    mark or assignment."""
    return ParserRule(name, None, RuleCall(rule_name=name))


def _scans_like_the_reference(a, b) -> bool:
    """Whether the scan of the two rules' signatures equals the reference's
    scan of the rules.  None is a missing rule: the scan gets `[]`, as
    `_pair_types` passes it, and the reference gets the empty shell."""
    name = (a or b).name
    sig_a, sig_b = ([] if r is None else rule_signature(r) for r in (a, b))
    shell_a, shell_b = (_empty_shell(name) if r is None else r for r in (a, b))
    return _signature_scan(sig_a, sig_b) == _ref_signature_scan(shell_a, shell_b)


def test_signature_scan_matches_the_reference_on_fixture_rule_pairs():
    pairs = [(a, b) for a in _FIXTURE_RULES for b in _FIXTURE_RULES]
    pairs += [(r, None) for r in _FIXTURE_RULES] + [(None, r) for r in _FIXTURE_RULES]
    for a, b in pairs:
        assert _scans_like_the_reference(a, b), (a, b)


@settings(max_examples=300, deadline=None)
@given(
    base=st.sampled_from(_FIXTURE_GRAMMARS),
    seed=st.integers(0, 10**6),
    other=st.sampled_from(_FIXTURE_RULES),
)
def test_signature_scan_matches_the_reference_on_mutants(base, seed, other):
    mutation = random_mutation_pair(base, random.Random(seed))
    mutant = {r.name: r for r in (base if mutation is None else mutation[0]).rules}
    for rule in base.rules:
        changed = mutant.get(rule.name, rule)
        pairs = [(rule, changed), (changed, rule), (changed, other), (other, changed)]
        pairs += [(changed, None), (None, changed)]
        for a, b in pairs:
            assert _scans_like_the_reference(a, b), (a, b)


#: Terminals whose tokens the scan's tags must hold whole: qualified calls,
#: each cross-reference form (`[T]` and `[T|None]` among them), and a mark
#: on the terminal itself, a shape the parser never makes.
_TERMINAL = st.builds(
    RuleCall, rule_name=st.sampled_from(["A", "ID", "a::B", "a.b"]), cardinality=_CARD
) | st.builds(
    lambda ref, card: CrossReference(*ref, cardinality=card),
    st.sampled_from([("T", "ID"), ("T", None), ("", "ID"), ("a::T", "ID"), ("T", "None")]),
    _CARD,
)
_SCANNED_LEAF = (
    _KEYWORD
    | _ASSIGNMENT
    | st.builds(Assignment, feature=st.sampled_from(["x", "y"]),
                operator=st.sampled_from(["=", "+="]), terminal=_TERMINAL, **_MARKS)
    | st.builds(RuleCall, rule_name=st.sampled_from(["A", "a::B"]))
)
_SCANNED_NODE = st.recursive(
    _SCANNED_LEAF,
    lambda inner: st.builds(Group, children=st.lists(inner, min_size=1, max_size=4), **_MARKS)
    | st.builds(Alternatives, branches=st.lists(inner, min_size=2, max_size=3), **_MARKS),
    max_leaves=12,
)
_SCANNED_RULE = st.builds(
    lambda kids: ParserRule("R", None, Group(children=tuple(kids))),
    st.lists(_SCANNED_NODE, min_size=1, max_size=5),
)


@settings(max_examples=300, deadline=None)
@given(a=_SCANNED_RULE, b=_SCANNED_RULE)
def test_signature_scan_matches_the_reference_on_drawn_rules(a, b):
    """Drawn rules hold shapes the parser never makes: predicated groups,
    nested alternatives and brace keywords as assignment terminals."""
    for x, y in [(a, b), (b, a), (a, None), (None, b)]:
        assert _scans_like_the_reference(x, y), (x, y)


def test_a_cross_reference_that_gains_a_terminal_is_a_type_system_adaptation():
    """`[T]` and `[T|None]` differ in their tokens, so the fallback pair
    needs a type-system adaptation that the unadapted candidate lacks."""
    g2, target = parse_grammar("R: x=[T];"), parse_grammar("R: x=[T|None];")
    per_type = evaluate(g2, g2, target).per_type
    assert {t: (c.occurrences, c.correct, c.incorrect) for t, c in per_type.items()} == {
        AdaptationType.TYPE_SYSTEM_ADAPTATION: (1, 0, 1)
    }


def test_classify_perfect_candidate_never_incorrect():
    from corpus import corpus_pairs

    for name, g2, target, _ in corpus_pairs():
        per_type = evaluate(g2, target, target).per_type
        for adaptation_type, counts in per_type.items():
            assert counts.incorrect == 0, (name, adaptation_type)
            assert counts.correct == counts.occurrences, (name, adaptation_type)


def _searched_counts(g2, target, candidate):
    """Per-type (occurrences, incorrect) by the definition: every required
    rule the candidate has is searched against the target afresh."""
    g2_sigs, target_sigs, cand_sigs = (_Signatures(g) for g in (g2, target, candidate))
    counts = {}
    for name in _required_rules(g2_sigs, target_sigs):
        tgt, tgt_sig = target_sigs.rule_by_name.get(name), target_sigs.by_name.get(name)
        needed = _pair_types(
            g2_sigs.rule_by_name.get(name), tgt, g2_sigs.by_name.get(name), tgt_sig
        )
        cand_rule = cand_sigs.rule_by_name.get(name)
        if tgt is None:
            residual = needed if cand_rule is not None else set()
        elif cand_rule is None:
            residual = needed
        else:
            residual = _pair_types(cand_rule, tgt, cand_sigs.by_name[name], tgt_sig)
        for adaptation_type in needed:
            occurrences, incorrect = counts.get(adaptation_type, (0, 0))
            counts[adaptation_type] = (occurrences + 1, incorrect + (adaptation_type in residual))
    return counts


def test_classify_agrees_with_a_search_of_every_candidate_rule():
    from corpus import corpus_pairs

    trios = [build_trio(12, 7, 4), build_trio(8, 4, 1), build_trio(5, 0, 0)]
    trios += [(g2, g2, target) for _, g2, target, _ in corpus_pairs()]
    trios += [(g2, target, target) for _, g2, target, _ in corpus_pairs()]
    trios += [(g2, target, g2) for _, g2, target, _ in corpus_pairs()]
    kept = parse_grammar("A: 'a' x=ID;\n\nB: 'b' '{' y=ID '}';")
    dropped = parse_grammar("A: 'a' x=ID;")  # the target drops B; so may the candidate
    trios += [(kept, kept, dropped), (kept, dropped, dropped)]
    for g2, candidate, target in trios:
        per_type = evaluate(g2, candidate, target).per_type
        assert all(c.occurrences == c.correct + c.incorrect for c in per_type.values())
        assert {t: (c.occurrences, c.incorrect) for t, c in per_type.items()} == _searched_counts(
            g2, target, candidate
        )


def test_unadapted_rules_reuse_the_search_of_their_needed_types(monkeypatch):
    """One search per required rule finds its needed types; the three rules
    the candidate left as G2 has them are not searched again, and the one it
    realized equals the target."""
    searched = []
    search = evaluate_module.infer_rule_ops

    def counted(src, dst, src_sig, dst_sig):
        searched.append(src.name)
        return search(src, dst, src_sig, dst_sig)

    monkeypatch.setattr(evaluate_module, "infer_rule_ops", counted)
    g2, candidate, target = build_trio(8, 4, 1)
    per_type = evaluate(g2, candidate, target).per_type
    assert searched == ["R00", "R01", "R02", "R03"]
    assert {t: (c.occurrences, c.correct, c.incorrect) for t, c in per_type.items()} == {
        AdaptationType.KEYWORD_REMOVAL: (4, 1, 3)
    }


# -- report -------------------------------------------------------------------


def test_report_json_shape():
    g2, candidate, target = build_trio(6, 3, 2)
    report = evaluate(g2, candidate, target)
    doc = report.to_json_dict()
    assert set(doc) == {
        "nTotal",
        "nCorrect",
        "rac",
        "same",
        "diff",
        "percent",
        "perType",
        "comparisons",
        "conformance",
    }
    assert doc["nTotal"] == 3
    assert doc["nCorrect"] == 2
    assert isinstance(doc["rac"], float)
    for entry in doc["perType"].values():
        assert set(entry) == {"occ", "cor", "inc"}


def test_report_table_layout():
    g2, candidate, target = build_trio(24, 19, 16)
    table = report_table(evaluate(g2, candidate, target))
    header = table.splitlines()[0]
    for column in ["required adaptations", "correct adaptations", "RAC", "Same", "Diff", "Percent"]:
        assert column in header
    assert "84.21%" in table
    assert "87.50%" in table


@pytest.mark.parametrize(
    "value,expected",
    [(1.0, "100%"), (0.625, "62.50%"), (16 / 19, "84.21%"), (0.875, "87.50%"), (0.0, "0.00%"), (0.70, "70.00%")],
)
def test_format_percent(value, expected):
    assert format_percent(value) == expected


def test_format_percent_rounds_half_up():
    assert format_percent(0.83335) == "83.34%"
    assert format_percent(0.83334) == "83.33%"
