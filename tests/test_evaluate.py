import importlib

import pytest

from corpus import build_trio, load_grammar, load_pair
from xtadapt.evaluate import (
    AdaptationType,
    RuleStatus,
    _pair_types,
    _required_rules,
    _Signatures,
    classify_adaptations,
    compare_rules,
    compute_rac,
    compute_similarity,
    evaluate,
    format_percent,
    report_table,
)
from xtadapt.parsing import parse_grammar

#: The module, which the package's `evaluate` function shadows.
evaluate_module = importlib.import_module("xtadapt.evaluate")


# -- compare_rules ----------------------------------------------------------


def test_compare_identical_grammar():
    target = load_grammar("mission_target.xtext")
    comparisons = compare_rules(target, target)
    assert [(c.rule_name, c.status, c.token_distance) for c in comparisons] == [
        ("Mission", RuleStatus.SAME, 0)
    ]


def test_compare_differing_rule():
    g1, g1prime = load_pair("mission")
    comparisons = compare_rules(g1, g1prime)
    assert comparisons[0].status is RuleStatus.DIFF
    assert comparisons[0].token_distance > 0


def test_compare_missing_and_extra():
    small = parse_grammar("A: 'a';")
    big = parse_grammar("A: 'a';\n\nB: 'b';")
    comparisons = compare_rules(small, big)
    assert [(c.rule_name, c.status) for c in comparisons] == [
        ("A", RuleStatus.SAME),
        ("B", RuleStatus.MISSING_IN_CANDIDATE),
    ]
    comparisons = compare_rules(big, small)
    assert ("B", RuleStatus.EXTRA_IN_CANDIDATE) in [
        (c.rule_name, c.status) for c in comparisons
    ]


def test_same_iff_distance_zero():
    g2, candidate, target = build_trio(6, 4, 2)
    for comparison in compare_rules(candidate, target):
        assert (comparison.status is RuleStatus.SAME) == (comparison.token_distance == 0)


# -- compute_rac ------------------------------------------------------------


def test_rac_dot_scale():
    g2, candidate, target = build_trio(24, 19, 16)
    n_total, n_correct, rac = compute_rac(g2, candidate, target)
    assert (n_total, n_correct) == (19, 16)
    assert abs(rac - 16 / 19) < 1e-9
    assert format_percent(rac) == "84.21%"


def test_rac_xcore_scale():
    g2, candidate, target = build_trio(40, 32, 20)
    n_total, n_correct, rac = compute_rac(g2, candidate, target)
    assert (n_total, n_correct) == (32, 20)
    assert format_percent(rac) == "62.50%"


def test_rac_nothing_adapted_is_zero():
    g2, _, target = build_trio(10, 4, 0)
    n_total, n_correct, rac = compute_rac(g2, g2, target)
    assert n_total == 4
    assert n_correct == 0
    assert rac == 0.0
    assert format_percent(rac) == "0.00%"


def test_rac_vacuous_when_no_adaptation_required():
    target = load_grammar("mission_target.xtext")
    n_total, n_correct, rac = compute_rac(target, target, target)
    assert n_total == 0
    assert rac == 1.0
    assert format_percent(rac) == "100%"


def test_rac_candidate_equal_target_is_full():
    g2, _, target = build_trio(12, 7, 0)
    _, n_correct, rac = compute_rac(g2, target, target)
    assert n_correct == 7
    assert rac == 1.0


# -- compute_similarity -------------------------------------------------------


def test_similarity_xcore_scale():
    _, candidate, target = build_trio(40, 32, 20)
    same, diff, percent = compute_similarity(candidate, target)
    assert (same, diff) == (28, 12)
    assert format_percent(percent) == "70.00%"


def test_similarity_dot_scale():
    _, candidate, target = build_trio(24, 19, 16)
    same, diff, percent = compute_similarity(candidate, target)
    assert (same, diff) == (21, 3)
    assert format_percent(percent) == "87.50%"


def test_similarity_identity_over_corpus():
    from corpus import corpus_grammars

    for name, grammar in corpus_grammars():
        same, diff, percent = compute_similarity(grammar, grammar)
        assert (same, diff, percent) == (len(grammar.rules), 0, 1.0), name


def test_similarity_missing_counts_as_diff():
    small = parse_grammar("A: 'a';")
    big = parse_grammar("A: 'a';\n\nB: 'b';")
    same, diff, _ = compute_similarity(small, big)
    assert (same, diff) == (1, 1)


def test_similarity_extra_rules_do_not_reduce_percent():
    target = parse_grammar("A: 'a';")
    candidate = parse_grammar("A: 'a';\n\nB: 'b';")
    same, diff, percent = compute_similarity(candidate, target)
    assert (same, diff, percent) == (1, 0, 1.0)


def test_monotonicity_of_correct_counts():
    previous_correct = -1
    previous_same = -1
    for correct in range(0, 5):
        g2, candidate, target = build_trio(8, 4, correct)
        _, n_correct, _ = compute_rac(g2, candidate, target)
        same, _, _ = compute_similarity(candidate, target)
        assert n_correct > previous_correct
        assert same > previous_same
        previous_correct, previous_same = n_correct, same


# -- classify_adaptations -----------------------------------------------------


def test_classify_mission_candidate_equals_target():
    g2, target = load_pair("mission")
    per_type = classify_adaptations(g2, target, target)
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
    per_type = classify_adaptations(g2, target, g2)
    assert per_type
    for counts in per_type.values():
        assert counts.correct == 0
        assert counts.incorrect == counts.occurrences


def test_classify_occ_equals_cor_plus_inc():
    g2, candidate, target = build_trio(10, 6, 3)
    per_type = classify_adaptations(g2, target, candidate)
    for counts in per_type.values():
        assert counts.occurrences == counts.correct + counts.incorrect


def test_classify_fallback_pair_uses_signature_scan():
    g2, target = load_pair("port")
    per_type = classify_adaptations(g2, target, target)
    assert AdaptationType.BRACE_OPTIONALITY_REMOVAL in per_type
    assert AdaptationType.KEYWORD_REMOVAL in per_type
    for counts in per_type.values():
        assert counts.incorrect == 0


def test_classify_perfect_candidate_never_incorrect():
    from corpus import corpus_pairs

    for name, g2, target, _ in corpus_pairs():
        per_type = classify_adaptations(g2, target, target)
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
    for g2, candidate, target in trios:
        per_type = classify_adaptations(g2, target, candidate)
        assert all(c.occurrences == c.correct + c.incorrect for c in per_type.values())
        assert {t: (c.occurrences, c.incorrect) for t, c in per_type.items()} == _searched_counts(
            g2, target, candidate
        )


def test_unadapted_rules_reuse_the_search_of_their_needed_types(monkeypatch):
    """One search per required rule finds its needed types; the three rules
    the candidate left as G2 has them are not searched again, and the one it
    realized equals the target."""
    searched = []
    search = evaluate_module._infer

    def counted(src, dst, *args):
        searched.append(src.name)
        return search(src, dst, *args)

    monkeypatch.setattr(evaluate_module, "_infer", counted)
    g2, candidate, target = build_trio(8, 4, 1)
    per_type = classify_adaptations(g2, target, candidate)
    assert searched == ["R00", "R01", "R02", "R03"]
    assert {t: (c.occurrences, c.correct, c.incorrect) for t, c in per_type.items()} == {
        AdaptationType.KEYWORD_REMOVAL: (4, 1, 3)
    }


def test_evaluate_agrees_with_the_public_parts():
    """evaluate shares one signature map per grammar; each part of its
    report still equals the standalone function."""
    from corpus import corpus_pairs

    trios = [build_trio(12, 7, 4), build_trio(5, 0, 0)]
    trios += [(g2, g2, target) for _, g2, target, _ in corpus_pairs()]
    trios += [(g2, target, target) for _, g2, target, _ in corpus_pairs()]
    for g2, candidate, target in trios:
        report = evaluate(g2, candidate, target)
        assert (report.n_total, report.n_correct, report.rac) == compute_rac(g2, candidate, target)
        assert (report.same, report.diff, report.percent) == compute_similarity(candidate, target)
        assert report.per_type == classify_adaptations(g2, target, candidate)
        assert report.comparisons == compare_rules(candidate, target)


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
