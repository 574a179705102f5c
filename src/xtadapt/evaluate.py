"""Quantitative comparison of a candidate adapted grammar against a target.

Three granularities are reported: rule-level adaptation consistency (RAC)
over the rules that required adaptation, Same/Diff/Percent similarity over
the target's rules, and per-adaptation-type correctness counts.  All
comparisons are token-based on printed rules, so whitespace and quote style
never count as differences.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum

from .conformance import ConformanceFinding
from .extract import infer_rule_ops
from .model import ASSIGN_OPERATORS, Grammar, ParserRule
from .parsing import rule_signature, token_distance
from .transform import CATALOG, AdaptationType, _is_word


class RuleStatus(Enum):
    SAME = "SAME"
    DIFF = "DIFF"
    MISSING_IN_CANDIDATE = "MISSING_IN_CANDIDATE"
    EXTRA_IN_CANDIDATE = "EXTRA_IN_CANDIDATE"


@dataclass(frozen=True, slots=True)
class RuleComparison:
    rule_name: str
    status: RuleStatus
    token_distance: int


@dataclass(slots=True)
class TypeCounts:
    occurrences: int = 0
    correct: int = 0
    incorrect: int = 0


@dataclass(slots=True)
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


def _compare_rules(cand: _Signatures, target: _Signatures) -> list[RuleComparison]:
    """Rule-by-rule token comparison, paired by rule name: target rules lead
    in target order; candidate-only rules trail as EXTRA_IN_CANDIDATE."""
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


# ---------------------------------------------------------------------------
# Adaptation-type classification
# ---------------------------------------------------------------------------


def _tally(sig: list[str]):
    """A rule signature's comparison facts, keyed by the adaptation type a
    change in them shows, and its features in order of first assignment.
    A bare ``?``/``*``/``+`` is always a mark (``?=`` and ``+=`` are single
    tokens), and no head token precedes an assignment operator."""
    braces = cards = 0
    words: Counter[str] = Counter()
    punct: Counter[str] = Counter()
    typed: Counter[tuple[str, ...]] = Counter()
    features: dict[str, None] = {}
    for i, token in enumerate(sig):
        if token == "'{'" or token == "'}'":
            braces += 1
        elif token[0] == "'":
            (words if _is_word(token[1:-1]) else punct)[token] += 1
        elif token == "?" or token == "*" or token == "+":
            cards += 1
        elif token in ASSIGN_OPERATORS:
            feature, end = sig[i - 1], i + 1
            features.setdefault(feature)
            typed["operator", feature, token] += 1
            if sig[end] == "[":  # a cross-reference, up to its "]"
                end = sig.index("]", end)
            elif sig[end][0] != "'":  # a rule call, over each "." or "::" (two tokens) joint
                while sig[end + 1] in (".", ":"):
                    end += 3 if sig[end + 1] == ":" else 2
            else:
                continue  # a keyword terminal is tagged by nothing but its operator
            typed[(feature, *sig[i + 1 : end + 1])] += 1
    facts = {
        AdaptationType.BRACE_OPTIONALITY_REMOVAL: (braces, cards),
        AdaptationType.KEYWORD_REMOVAL: words,
        AdaptationType.SEPARATOR_MODIFICATION: punct,
        AdaptationType.TYPE_SYSTEM_ADAPTATION: typed,
    }
    return facts, features


def _signature_scan(sig_a: list[str], sig_b: list[str]) -> set[AdaptationType]:
    """Adaptation types whose token signature appears in the diff of a pair
    that the operation catalog cannot express, tallied from the two rules'
    signatures (``[]`` for a missing rule)."""
    facts_a, features_a = _tally(sig_a)
    facts_b, features_b = _tally(sig_b)
    types = {t for t, fact in facts_a.items() if fact != facts_b[t]}
    shared = [f for f in features_a if f in features_b]
    if [f for f in features_b if f in shared] != shared:
        types.add(AdaptationType.ATTRIBUTE_PROMOTION)
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
        return _signature_scan(src_sig or dst_sig, [])  # a missing rule tallies as []
    ops, fell_back = infer_rule_ops(src, dst, src_sig, dst_sig)
    if fell_back:
        return _signature_scan(src_sig, dst_sig)
    return {CATALOG[op.kind].adaptation for op in ops}  # no REPLACE_RULE without a fallback


def _classify(
    required: list[str], g2: _Signatures, target: _Signatures, cand: _Signatures
) -> dict[AdaptationType, TypeCounts]:
    """Per-type occurrence and correctness counts over the required rules.

    A type is realized for a rule when the residual diff between candidate
    and target no longer needs it; a rule increments each required type's
    occurrence count exactly once.
    """
    counts: dict[AdaptationType, TypeCounts] = {t: TypeCounts() for t in AdaptationType}
    for name in required:
        tgt, tgt_sig = target.rule_by_name.get(name), target.by_name.get(name)
        g2_rule, g2_sig = g2.rule_by_name.get(name), g2.by_name.get(name)
        needed = _pair_types(g2_rule, tgt, g2_sig, tgt_sig)
        if not needed:
            continue
        cand_rule, cand_sig = cand.rule_by_name.get(name), cand.by_name.get(name)
        if cand_sig == tgt_sig:
            residual: set[AdaptationType] = set()  # realized, or both lack the rule
        elif cand_rule is None or tgt is None or (cand_sig == g2_sig and cand_rule == g2_rule):
            residual = needed  # one side lacks it, or it is as in G2: its search gave `needed`
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

    RAC is the consistency over the rules requiring adaptation: a required
    rule counts as correct only when the candidate's version is token-equal
    to the target's, and zero required rules is a vacuous success.  Same,
    Diff and Percent count over the target's rules: a rule missing from the
    candidate counts as diff, extra candidate rules count nowhere.  Each
    grammar's rule signatures are computed once and shared by every part of
    the report.
    """
    g2_sigs, cand_sigs, target_sigs = (_Signatures(g) for g in (g2, candidate, target))
    required = _required_rules(g2_sigs, target_sigs)
    n_correct = sum(1 for n in required if cand_sigs.by_name.get(n) == target_sigs.by_name.get(n))
    comparisons = _compare_rules(cand_sigs, target_sigs)
    same = sum(1 for c in comparisons if c.status is RuleStatus.SAME)
    diff = len(target.rules) - same  # each target rule is SAME, DIFF or MISSING
    return EvaluationReport(
        n_total=len(required),
        n_correct=n_correct,
        rac=1.0 if not required else n_correct / len(required),
        same=same,
        diff=diff,
        percent=1.0 if same + diff == 0 else same / (same + diff),
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
