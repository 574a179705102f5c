"""Quantitative comparison of a candidate adapted grammar against a target.

Three granularities are reported: rule-level adaptation consistency (RAC)
over the rules that required adaptation, Same/Diff/Percent similarity over
the target's rules, and per-adaptation-type correctness counts.  All
comparisons are token-based on printed rules, so whitespace and quote style
never count as differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

from .conformance import ConformanceFinding
from .extract import _infer
from .model import (
    Assignment,
    CrossReference,
    Grammar,
    Keyword,
    ParserRule,
    RuleCall,
    is_brace,
    walk,
)
from .parsing import rule_signature, token_distance
from .transform import OpKind, _is_word


class RuleStatus(Enum):
    SAME = "SAME"
    DIFF = "DIFF"
    MISSING_IN_CANDIDATE = "MISSING_IN_CANDIDATE"
    EXTRA_IN_CANDIDATE = "EXTRA_IN_CANDIDATE"


class AdaptationType(Enum):
    BRACE_OPTIONALITY_REMOVAL = "BRACE_OPTIONALITY_REMOVAL"
    KEYWORD_REMOVAL = "KEYWORD_REMOVAL"
    ATTRIBUTE_PROMOTION = "ATTRIBUTE_PROMOTION"
    SEPARATOR_MODIFICATION = "SEPARATOR_MODIFICATION"
    TYPE_SYSTEM_ADAPTATION = "TYPE_SYSTEM_ADAPTATION"


_TYPE_OF_OP: dict[OpKind, AdaptationType] = {
    OpKind.REMOVE_BRACES: AdaptationType.BRACE_OPTIONALITY_REMOVAL,
    OpKind.MAKE_BRACES_OPTIONAL: AdaptationType.BRACE_OPTIONALITY_REMOVAL,
    OpKind.REMOVE_OPTIONALITY: AdaptationType.BRACE_OPTIONALITY_REMOVAL,
    OpKind.ADD_OPTIONALITY: AdaptationType.BRACE_OPTIONALITY_REMOVAL,
    OpKind.REMOVE_KEYWORD: AdaptationType.KEYWORD_REMOVAL,
    OpKind.RENAME_KEYWORD: AdaptationType.KEYWORD_REMOVAL,
    OpKind.PROMOTE_ATTRIBUTE: AdaptationType.ATTRIBUTE_PROMOTION,
    OpKind.CHANGE_SEPARATOR: AdaptationType.SEPARATOR_MODIFICATION,
    OpKind.ADD_TERMINATOR: AdaptationType.SEPARATOR_MODIFICATION,
    OpKind.CHANGE_CALLED_RULE: AdaptationType.TYPE_SYSTEM_ADAPTATION,
}


@dataclass(frozen=True)
class RuleComparison:
    rule_name: str
    status: RuleStatus
    token_distance: int


@dataclass
class TypeCounts:
    occurrences: int = 0
    correct: int = 0
    incorrect: int = 0


@dataclass
class EvaluationReport:
    n_total: int
    n_correct: int
    rac: float
    same: int
    diff: int
    percent: float
    per_type: dict[AdaptationType, TypeCounts]
    comparisons: list[RuleComparison]
    conformance: list[ConformanceFinding] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "nTotal": self.n_total,
            "nCorrect": self.n_correct,
            "rac": self.rac,
            "same": self.same,
            "diff": self.diff,
            "percent": self.percent,
            "perType": {
                t.value: {"occ": c.occurrences, "cor": c.correct, "inc": c.incorrect}
                for t, c in self.per_type.items()
            },
            "comparisons": [
                {
                    "rule": c.rule_name,
                    "status": c.status.value,
                    "tokenDistance": c.token_distance,
                }
                for c in self.comparisons
            ],
            "conformance": [
                {"rule": f.rule_name, "kind": f.kind.value, "detail": f.detail}
                for f in self.conformance
            ],
        }


def format_percent(value: float) -> str:
    """Two decimals, half-up; an exact 100 prints without decimals."""
    scaled = Decimal(str(value)) * 100
    quantized = scaled.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    if quantized == 100:
        return "100%"
    return f"{quantized}%"


class _Signatures:
    """Comparison tokens of one grammar's rules, computed once: in rule
    order, and by name (a later rule of the same name wins, as in a dict)."""

    def __init__(self, grammar: Grammar):
        self.rules = grammar.rules
        self.ordered = [rule_signature(r) for r in grammar.rules]
        self.by_name = {r.name: sig for r, sig in zip(self.rules, self.ordered)}
        self.rule_by_name = {r.name: r for r in self.rules}


def compare_rules(candidate: Grammar, target: Grammar) -> list[RuleComparison]:
    """Rule-by-rule token comparison, paired by rule name.

    Target rules lead in target order; candidate-only rules trail as
    EXTRA_IN_CANDIDATE.
    """
    return _compare_rules(_Signatures(candidate), _Signatures(target))


def _compare_rules(cand: _Signatures, target: _Signatures) -> list[RuleComparison]:
    comparisons: list[RuleComparison] = []
    for rule, target_sig in zip(target.rules, target.ordered):
        cand_sig = cand.by_name.get(rule.name)
        if cand_sig is None:
            comparisons.append(
                RuleComparison(rule.name, RuleStatus.MISSING_IN_CANDIDATE, len(target_sig))
            )
            continue
        distance = token_distance(cand_sig, target_sig)
        status = RuleStatus.SAME if distance == 0 else RuleStatus.DIFF
        comparisons.append(RuleComparison(rule.name, status, distance))
    for rule, cand_sig in zip(cand.rules, cand.ordered):
        if rule.name not in target.by_name:
            comparisons.append(
                RuleComparison(rule.name, RuleStatus.EXTRA_IN_CANDIDATE, len(cand_sig))
            )
    return comparisons


def _required_rules(g2: _Signatures, target: _Signatures) -> list[str]:
    """Names of rules that differ between the generated and target grammars,
    i.e. the rules requiring adaptation; absence on either side counts."""
    names = list(g2.by_name)
    names.extend(n for n in target.by_name if n not in g2.by_name)
    return [n for n in names if g2.by_name.get(n) != target.by_name.get(n)]


def compute_rac(
    g2: Grammar, candidate: Grammar, target: Grammar
) -> tuple[int, int, float]:
    """(n_total, n_correct, rac): consistency over rules requiring adaptation.

    A required rule counts as correct only when the candidate's version is
    token-equal to the target's; zero required rules is a vacuous success.
    """
    target_sigs = _Signatures(target)
    required = _required_rules(_Signatures(g2), target_sigs)
    return _rac(required, _Signatures(candidate), target_sigs)


def _rac(
    required: list[str], cand: _Signatures, target: _Signatures
) -> tuple[int, int, float]:
    n_total = len(required)
    n_correct = sum(1 for n in required if cand.by_name.get(n) == target.by_name.get(n))
    rac = 1.0 if n_total == 0 else n_correct / n_total
    return n_total, n_correct, rac


def compute_similarity(candidate: Grammar, target: Grammar) -> tuple[int, int, float]:
    """(same, diff, percent) counted over the target's rules; a rule missing
    from the candidate counts as diff, extra candidate rules count nowhere."""
    return _similarity(compare_rules(candidate, target))


def _similarity(comparisons: list[RuleComparison]) -> tuple[int, int, float]:
    same = 0
    diff = 0
    for comparison in comparisons:
        if comparison.status is RuleStatus.SAME:
            same += 1
        elif comparison.status in (RuleStatus.DIFF, RuleStatus.MISSING_IN_CANDIDATE):
            diff += 1
    percent = 1.0 if same + diff == 0 else same / (same + diff)
    return same, diff, percent


# ---------------------------------------------------------------------------
# Adaptation-type classification
# ---------------------------------------------------------------------------


def _rule_facts(rule: ParserRule):
    keywords: list[str] = []
    features: list[str] = []
    calls: list[tuple[str, str]] = []
    crossrefs: list[str] = []
    operators: list[tuple[str, str]] = []
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
                    f"{node.feature}:[{node.terminal.type_name}|{node.terminal.terminal_name}]"
                )
        if node.cardinality.value:
            cards += 1
    return keywords, features, calls, crossrefs, operators, braces, cards


def _signature_scan(a: ParserRule, b: ParserRule) -> set[AdaptationType]:
    """Adaptation types whose token signature appears in the diff of a pair
    that the operation catalog cannot express."""
    kw_a, feat_a, calls_a, xref_a, ops_a, braces_a, cards_a = _rule_facts(a)
    kw_b, feat_b, calls_b, xref_b, ops_b, braces_b, cards_b = _rule_facts(b)
    types: set[AdaptationType] = set()
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
    if sorted(calls_a) != sorted(calls_b) or sorted(xref_a) != sorted(xref_b):
        types.add(AdaptationType.TYPE_SYSTEM_ADAPTATION)
    if sorted(ops_a) != sorted(ops_b):
        types.add(AdaptationType.TYPE_SYSTEM_ADAPTATION)
    return types


def _pair_types(
    src: ParserRule | None,
    dst: ParserRule | None,
    src_sig: list[str] | None,
    dst_sig: list[str] | None,
) -> set[AdaptationType]:
    """Adaptation types needed to turn src into dst, given their signatures
    (absence = everything the other side's signature shows)."""
    if src is None or dst is None:
        present = src if src is not None else dst
        assert present is not None
        empty_shell = ParserRule(present.name, None, RuleCall(rule_name=present.name))
        return _signature_scan(present, empty_shell)
    if src_sig == dst_sig:
        return set()
    ops, fell_back = _infer(src, dst, src_sig, dst_sig)
    if fell_back:
        return _signature_scan(src, dst)
    return {_TYPE_OF_OP[op.kind] for op in ops if op.kind is not OpKind.REPLACE_RULE}


def classify_adaptations(
    g2: Grammar, target: Grammar, candidate: Grammar
) -> dict[AdaptationType, TypeCounts]:
    """Per-type occurrence and correctness counts over rules requiring
    adaptation.

    A type is realized for a rule when the residual diff between candidate
    and target no longer needs it; a rule increments each required type's
    occurrence count exactly once.
    """
    g2_sigs, target_sigs = _Signatures(g2), _Signatures(target)
    required = _required_rules(g2_sigs, target_sigs)
    return _classify(required, g2_sigs, target_sigs, _Signatures(candidate))


def _classify(
    required: list[str], g2: _Signatures, target: _Signatures, cand: _Signatures
) -> dict[AdaptationType, TypeCounts]:
    counts: dict[AdaptationType, TypeCounts] = {t: TypeCounts() for t in AdaptationType}
    for name in required:
        tgt, tgt_sig = target.rule_by_name.get(name), target.by_name.get(name)
        g2_rule, g2_sig = g2.rule_by_name.get(name), g2.by_name.get(name)
        needed = _pair_types(g2_rule, tgt, g2_sig, tgt_sig)
        if not needed:
            continue
        cand_rule, cand_sig = cand.rule_by_name.get(name), cand.by_name.get(name)
        if cand_rule is not None and tgt is not None and cand_sig == tgt_sig:
            residual: set[AdaptationType] = set()
        elif tgt is None:
            residual = needed if cand_rule is not None else set()
        elif cand_rule is None or (cand_sig == g2_sig and cand_rule == g2_rule):
            residual = needed  # left unadapted: the search that gave `needed`
        else:
            residual = _pair_types(cand_rule, tgt, cand_sig, tgt_sig)
        for adaptation_type in needed:
            counts[adaptation_type].occurrences += 1
            if adaptation_type in residual:
                counts[adaptation_type].incorrect += 1
            else:
                counts[adaptation_type].correct += 1
    return {t: c for t, c in counts.items() if c.occurrences}


def evaluate(
    g2: Grammar,
    candidate: Grammar,
    target: Grammar,
    conformance: list[ConformanceFinding] | None = None,
) -> EvaluationReport:
    """Full report: RAC, similarity, per-type counts and rule comparisons.

    Each grammar's rule signatures are computed once and shared by every
    part of the report.
    """
    g2_sigs, cand_sigs, target_sigs = (_Signatures(g) for g in (g2, candidate, target))
    required = _required_rules(g2_sigs, target_sigs)
    n_total, n_correct, rac = _rac(required, cand_sigs, target_sigs)
    comparisons = _compare_rules(cand_sigs, target_sigs)
    same, diff, percent = _similarity(comparisons)
    return EvaluationReport(
        n_total=n_total,
        n_correct=n_correct,
        rac=rac,
        same=same,
        diff=diff,
        percent=percent,
        per_type=_classify(required, g2_sigs, target_sigs, cand_sigs),
        comparisons=comparisons,
        conformance=conformance or [],
    )


def report_table(report: EvaluationReport) -> str:
    """Aligned plain-text table of the headline metrics."""
    headers = [
        "required adaptations",
        "correct adaptations",
        "RAC",
        "Same",
        "Diff",
        "Percent",
    ]
    row = [
        str(report.n_total),
        str(report.n_correct),
        format_percent(report.rac),
        str(report.same),
        str(report.diff),
        format_percent(report.percent),
    ]
    widths = [max(len(h), len(v)) for h, v in zip(headers, row)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join(v.ljust(w) for v, w in zip(row, widths)),
    ]
    if report.per_type:
        lines.append("")
        lines.append("adaptation types (occ/cor/inc):")
        for adaptation_type, c in sorted(report.per_type.items(), key=lambda kv: kv[0].value):
            lines.append(
                f"  {adaptation_type.value}: {c.occurrences}/{c.correct}/{c.incorrect}"
            )
    return "\n".join(lines) + "\n"
