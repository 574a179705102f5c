"""Learn a TransformationConfig by structurally diffing two grammar versions.

For every rule paired by name, candidate operations are proposed from a
structural comparison of the two rule bodies and accepted greedily, in the
engine's canonical phase order, whenever they strictly reduce the token-level
edit distance to the target rule.  Any rule whose residual distance is not
zero falls back to a wholesale REPLACE_RULE entry, so the extract-then-apply
round trip is an identity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Assignment,
    Cardinality,
    Expression,
    Grammar,
    Group,
    Keyword,
    ParserRule,
    RuleCall,
    children_of,
    is_brace,
    node_at,
    walk,
)
from .parsing import render_body_inline, rule_signature, token_distance
from .transform import (
    _APPLIERS,
    PHASE_OF,
    OpKind,
    RuleIndex,
    TransformOp,
    TransformationConfig,
    apply_config,
    attribute_scope,
    rule_scope,
)


class ExtractionError(Exception):
    """Internal consistency failure: the extracted config did not replay."""


@dataclass(frozen=True)
class RulePairing:
    pairs: tuple[str, ...]
    unmatched_left: tuple[str, ...]
    unmatched_right: tuple[str, ...]


@dataclass
class ExtractionResult:
    config: TransformationConfig
    fallback_count: int


def pair_rules(g1: Grammar, g1prime: Grammar) -> RulePairing:
    """Pair rules of two grammar versions by exact name."""
    left = {r.name for r in g1.rules}
    right = {r.name for r in g1prime.rules}
    return RulePairing(
        pairs=tuple(n for n in (r.name for r in g1.rules) if n in right),
        unmatched_left=tuple(n for n in (r.name for r in g1.rules) if n not in right),
        unmatched_right=tuple(n for n in (r.name for r in g1prime.rules) if n not in left),
    )


# ---------------------------------------------------------------------------
# Structural feature/rule context
# ---------------------------------------------------------------------------


@dataclass
class _FeatureContext:
    feature: str
    anchor_node: Expression
    keyword_before: str | None
    has_braces: bool
    cardinality: Cardinality
    separator: str | None
    has_repetition: bool
    terminators: tuple[str, ...]
    terminal_calls: tuple[str | None, ...]
    before_braces: bool


def _feature_context(rule: ParserRule, index: RuleIndex, feature: str) -> _FeatureContext:
    paths = index.paths[feature]
    anchor_node = node_at(rule.body, index.anchors[feature][0])

    first = paths[0]
    parent = node_at(rule.body, first[:-1]) if first else rule.body
    siblings = children_of(parent) if first else (rule.body,)
    idx = first[-1] if first else 0

    keyword_before: str | None = None
    for j in range(idx - 1, -1, -1):
        sib = siblings[j]
        if is_brace(sib):
            continue
        if isinstance(sib, Keyword):
            keyword_before = sib.text
        break
    if keyword_before == rule.name:
        # The rule's own leading keyword, not an attribute keyword.
        keyword_before = None

    region_nodes = [n for _, n in walk(anchor_node)]
    has_braces = any(is_brace(n) for n in region_nodes)
    separator = None
    has_repetition = False
    for n in region_nodes:
        if isinstance(n, Group) and n.cardinality in (Cardinality.STAR, Cardinality.PLUS):
            has_repetition = True
            if n.children and isinstance(n.children[0], Keyword):
                separator = n.children[0].text
            break

    terminators: list[str] = []
    if isinstance(anchor_node, Group):
        kids = anchor_node.children
        for i, child in enumerate(kids):
            if isinstance(child, Assignment) and child.feature == feature:
                nxt = kids[i + 1] if i + 1 < len(kids) else None
                if isinstance(nxt, Keyword) and not is_brace(nxt):
                    terminators.append(nxt.text)

    calls: list[str | None] = []
    for p in paths:
        a = node_at(rule.body, p)
        assert isinstance(a, Assignment)
        calls.append(a.terminal.rule_name if isinstance(a.terminal, RuleCall) else None)

    before_braces = True
    if index.braces is not None and first:
        before_braces = first[0] < index.braces[0]
    return _FeatureContext(
        feature=feature,
        anchor_node=anchor_node,
        keyword_before=keyword_before,
        has_braces=has_braces,
        cardinality=anchor_node.cardinality,
        separator=separator,
        has_repetition=has_repetition,
        terminators=tuple(terminators),
        terminal_calls=tuple(calls),
        before_braces=before_braces,
    )


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _candidates(
    src: ParserRule, dst: ParserRule, src_index: RuleIndex, dst_index: RuleIndex
) -> list[TransformOp]:
    name = src.name
    ops: list[TransformOp] = []

    def add(kind: OpKind, scope, params: dict | None = None) -> None:
        op = TransformOp(kind, scope, params or {})
        if op not in ops:
            ops.append(op)

    dst_keywords = set(dst_index.keywords)

    for feature in src_index.paths:
        if feature not in dst_index.paths:
            continue
        sc = _feature_context(src, src_index, feature)
        dc = _feature_context(dst, dst_index, feature)
        scope = attribute_scope(name, feature)
        if not sc.before_braces and dc.before_braces and dc.keyword_before is None:
            add(OpKind.PROMOTE_ATTRIBUTE, scope, {"anchor": "BEFORE_BRACES"})
        if sc.cardinality is Cardinality.OPTIONAL and dc.cardinality is Cardinality.ONE:
            add(OpKind.REMOVE_OPTIONALITY, scope)
        if sc.cardinality is Cardinality.ONE and dc.cardinality is Cardinality.OPTIONAL:
            add(OpKind.ADD_OPTIONALITY, scope)
        if sc.has_braces and not dc.has_braces:
            add(OpKind.REMOVE_BRACES, scope)
        if sc.keyword_before is not None and dc.keyword_before is None:
            add(OpKind.REMOVE_KEYWORD, scope, {"text": sc.keyword_before})
        if (
            sc.keyword_before is not None
            and dc.keyword_before is not None
            and sc.keyword_before != dc.keyword_before
        ):
            add(
                OpKind.RENAME_KEYWORD,
                scope,
                {"from": sc.keyword_before, "to": dc.keyword_before},
            )
        if sc.separator is not None and dc.has_repetition:
            if dc.separator is None:
                add(OpKind.CHANGE_SEPARATOR, scope, {"from": sc.separator, "to": None})
            elif dc.separator != sc.separator:
                add(
                    OpKind.CHANGE_SEPARATOR,
                    scope,
                    {"from": sc.separator, "to": dc.separator},
                )
        for term in dc.terminators:
            if term not in sc.terminators:
                add(OpKind.ADD_TERMINATOR, scope, {"text": term})
        for src_call, dst_call in zip(sc.terminal_calls, dc.terminal_calls):
            if src_call and dst_call and src_call != dst_call:
                add(
                    OpKind.CHANGE_CALLED_RULE,
                    scope,
                    {"from": src_call, "to": dst_call},
                )

    # Rule-level structure.
    src_brace, dst_brace = src_index.braces, dst_index.braces
    if src_brace is not None and not src_brace[1]:
        if dst_brace is not None and dst_brace[1]:
            add(OpKind.MAKE_BRACES_OPTIONAL, rule_scope(name))
        if dst_brace is None:
            add(OpKind.REMOVE_BRACES, rule_scope(name))

    src_lead, dst_lead = src_index.leading, dst_index.leading
    if src_lead is not None and src_lead not in dst_keywords:
        if dst_lead is not None and dst_lead not in src_index.keywords:
            add(
                OpKind.RENAME_KEYWORD,
                rule_scope(name),
                {"from": src_lead, "to": dst_lead},
            )
        add(OpKind.REMOVE_KEYWORD, rule_scope(name), {"text": src_lead})

    # Generic sweep for leftover keyword deletions; repetition separators are
    # excluded so CHANGE_SEPARATOR keeps ownership of them.
    for text in src_index.keywords:
        if text not in dst_keywords and text not in src_index.separators:
            add(OpKind.REMOVE_KEYWORD, rule_scope(name), {"text": text})

    ops.sort(key=lambda op: PHASE_OF[op.kind])
    return ops


# ---------------------------------------------------------------------------
# Greedy inference with the replay oracle
# ---------------------------------------------------------------------------


def infer_rule_ops(
    src: ParserRule, dst: ParserRule
) -> tuple[list[TransformOp], bool]:
    """Catalog ops turning ``src`` into ``dst``, plus a fallback flag.

    Returns ``(ops, False)`` when the catalog expresses the whole diff and
    ``(ops, True)`` when a REPLACE_RULE fallback is required; fallback ops
    replace any partial inference so later entries cannot damage the
    replacement.
    """
    return _infer(src, dst, rule_signature(src), rule_signature(dst))


#: Kinds whose op matches nothing unless the rule holds the keyword that
#: this param names (never a brace, for a candidate).
_KEYWORD_PARAM = {OpKind.REMOVE_KEYWORD: "text", OpKind.RENAME_KEYWORD: "from"}


def _infer(
    src: ParserRule, dst: ParserRule, src_sig: list[str], target_sig: list[str]
) -> tuple[list[TransformOp], bool]:
    """``infer_rule_ops`` given the signatures of both rules."""
    if src_sig == target_sig:
        return [], False
    if src.returns_type != dst.returns_type or src.enum != dst.enum:
        return [_fallback_op(dst, src)], True
    working = src
    index = src_index = RuleIndex(src)
    distance = token_distance(src_sig, target_sig)
    candidates = _candidates(src, dst, src_index, RuleIndex(dst))
    accepted: list[TransformOp] = []
    progress = True
    while progress and distance > 0:
        progress = False
        for cand in candidates:
            if cand in accepted:
                continue
            param = _KEYWORD_PARAM.get(cand.kind)
            if param is not None and cand.param(param) not in index.keywords:
                continue  # matches nothing
            new_rule, matched = _APPLIERS[cand.kind](working, cand, index)
            if matched == 0:
                continue
            new_distance = token_distance(rule_signature(new_rule), target_sig)
            if new_distance < distance:
                working, distance = new_rule, new_distance
                accepted.append(cand)
                progress = True
                if not distance:
                    break  # no later candidate can lower it
                index = RuleIndex(working)
    if distance > 0:
        return [_fallback_op(dst, src)], True
    ordered = sorted(accepted, key=lambda op: PHASE_OF[op.kind])
    if ordered != accepted:
        # The greedy loop validated ops in acceptance order; replay runs them
        # phase-bucketed, which can disagree when ops overlap structurally.
        # In acceptance order the replay would redo the loop's own applies.
        replayed, index = src, src_index
        for op in ordered:
            replayed, matched = _APPLIERS[op.kind](replayed, op, index)
            if matched:
                index = RuleIndex(replayed)
        if rule_signature(replayed) != target_sig:
            return [_fallback_op(dst, src)], True
    return ordered, False


def _fallback_op(dst: ParserRule, src: ParserRule) -> TransformOp:
    params: dict[str, object] = {"body": render_body_inline(dst.body)}
    if src.returns_type != dst.returns_type:
        params["returns"] = dst.returns_type or ""
    if src.enum != dst.enum:
        params["enum"] = dst.enum
    return TransformOp(OpKind.REPLACE_RULE, rule_scope(dst.name), params)


def extract_config(g1: Grammar, g1prime: Grammar) -> ExtractionResult:
    """Infer the config that rewrites ``g1`` into ``g1prime``.

    Rules only present in ``g1prime`` are ignored: they cannot stem from an
    adaptation of ``g1``.  Rules only present in ``g1`` are removed via a
    REPLACE_RULE entry so the replay identity holds for deletions too.
    """
    pairing = pair_rules(g1, g1prime)
    src_rules = {r.name: r for r in g1.rules}
    # Each paired G1' rule is signed once, for the search and the check.
    target_sigs = [rule_signature(r) if r.name in src_rules else None for r in g1prime.rules]
    dst_rules = {r.name: (r, sig) for r, sig in zip(g1prime.rules, target_sigs)}
    entries: list[TransformOp] = []
    fallback_count = 0
    for rule_name in pairing.pairs:
        src = src_rules[rule_name]
        dst, dst_sig = dst_rules[rule_name]
        ops, fell_back = _infer(src, dst, rule_signature(src), dst_sig)
        if fell_back:
            fallback_count += 1
        entries.extend(ops)
    for rule_name in pairing.unmatched_left:
        entries.append(
            TransformOp(OpKind.REPLACE_RULE, rule_scope(rule_name), {"remove": True})
        )
        fallback_count += 1

    provenance = (
        f"extracted from {g1.name or 'unnamed'} pair"
        if entries
        else f"identity: {g1.name or 'unnamed'} pair has no rule differences"
    )
    config = TransformationConfig(entries=tuple(entries), provenance=provenance)
    _verify_round_trip(config, g1, g1prime, target_sigs)
    return ExtractionResult(config=config, fallback_count=fallback_count)


def _verify_round_trip(
    config: TransformationConfig,
    g1: Grammar,
    g1prime: Grammar,
    target_sigs: list[list[str] | None],
) -> None:
    """Replay ``config`` on ``g1`` and check every rule against ``g1prime``,
    given the signatures of its rules that ``g1`` also names, in rule order."""
    replayed, _ = apply_config(config, g1)
    replayed_rules = {r.name: r for r in replayed.rules}
    target_names = {r.name for r in g1prime.rules}
    for rule, target_sig in zip(g1prime.rules, target_sigs):
        got = replayed_rules.get(rule.name)
        if got is None:
            continue  # rule added on the evolved-metamodel path, not extractable
        if rule_signature(got) != target_sig:
            raise ExtractionError(
                f"extracted config does not replay rule {rule.name!r}"
            )
    for rule in replayed.rules:
        if rule.name not in target_names:
            raise ExtractionError(
                f"extracted config leaves stale rule {rule.name!r} behind"
            )
