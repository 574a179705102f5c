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
    grammar_problems,
    is_brace,
    node_at,
)
from .parsing import render_body_inline, rule_signature, token_distance
from .transform import (
    CATALOG,
    OpKind,
    RuleIndex,
    TransformError,
    TransformOp,
    TransformationConfig,
    attribute_scope,
    rule_scope,
)


class ExtractionError(Exception):
    """Internal consistency failure: the extracted config did not replay."""


@dataclass(slots=True)
class ExtractionResult:
    config: TransformationConfig
    fallback_count: int


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def _before_braces(index: RuleIndex, feature: str) -> bool:
    """Whether the feature's first assignment comes before the body's brace
    region (or the body has none)."""
    first = index.paths[feature][0]
    return index.braces is None or not first or first[0] < index.braces[0]


def _terminators(anchor: Expression, feature: str) -> list[str]:
    """The non-brace keywords that directly follow the feature's assignments
    among a group anchor's children."""
    kids = anchor.children if isinstance(anchor, Group) else ()
    return [
        nxt.text
        for child, nxt in zip(kids, kids[1:])
        if isinstance(child, Assignment) and child.feature == feature
        and isinstance(nxt, Keyword) and not is_brace(nxt)
    ]


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
        scope = attribute_scope(name, feature)
        # Each side's first anchor, and the keyword before its first assignment.
        s_at, d_at = src_index.anchors[feature][0], dst_index.anchors[feature][0]
        s_node, d_node = node_at(src.body, s_at), node_at(dst.body, d_at)
        s_kw, d_kw = src_index.keyword_before[feature], dst_index.keyword_before[feature]
        if (
            not _before_braces(src_index, feature)
            and _before_braces(dst_index, feature)
            and d_kw is None
        ):
            add(OpKind.PROMOTE_ATTRIBUTE, scope, {"anchor": "BEFORE_BRACES"})
        cardinalities = (s_node.cardinality, d_node.cardinality)
        if cardinalities == (Cardinality.OPTIONAL, Cardinality.ONE):
            add(OpKind.REMOVE_OPTIONALITY, scope)
        if cardinalities == (Cardinality.ONE, Cardinality.OPTIONAL):
            add(OpKind.ADD_OPTIONALITY, scope)
        if s_at in src_index.braced and d_at not in dst_index.braced:
            add(OpKind.REMOVE_BRACES, scope)
        if s_kw is not None and d_kw is None:
            add(OpKind.REMOVE_KEYWORD, scope, {"text": s_kw})
        if s_kw is not None and d_kw is not None and s_kw != d_kw:
            add(OpKind.RENAME_KEYWORD, scope, {"from": s_kw, "to": d_kw})
        s_sep = src_index.repeats.get(s_at)
        if s_sep is not None and d_at in dst_index.repeats:
            d_sep = dst_index.repeats[d_at]  # None drops the separator
            if d_sep != s_sep:
                add(OpKind.CHANGE_SEPARATOR, scope, {"from": s_sep, "to": d_sep})
        s_terminators = _terminators(s_node, feature)
        for term in _terminators(d_node, feature):
            if term not in s_terminators:
                add(OpKind.ADD_TERMINATOR, scope, {"text": term})
        for s_call, d_call in zip(src_index.calls[feature], dst_index.calls[feature]):
            if s_call and d_call and s_call != d_call:
                add(OpKind.CHANGE_CALLED_RULE, scope, {"from": s_call, "to": d_call})

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

    ops.sort(key=lambda op: CATALOG[op.kind].phase)
    return ops


# ---------------------------------------------------------------------------
# Greedy inference with the replay oracle
# ---------------------------------------------------------------------------


def infer_rule_ops(
    src: ParserRule, dst: ParserRule, src_sig: list[str], target_sig: list[str]
) -> tuple[list[TransformOp], bool]:
    """Catalog ops turning ``src`` into ``dst``, given the signatures of
    both rules, plus a fallback flag.

    Returns ``(ops, False)`` when the catalog expresses the whole diff and
    ``(ops, True)`` when a REPLACE_RULE fallback is required; fallback ops
    replace any partial inference so later entries cannot damage the
    replacement.
    """
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
            spec = CATALOG[cand.kind]
            if spec.keyword is not None and cand.param(spec.keyword) not in index.keywords:
                continue  # matches nothing
            new_rule, matched = spec.apply(working, cand, index)
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
    ordered = sorted(accepted, key=lambda op: CATALOG[op.kind].phase)
    if ordered != accepted:
        # The greedy loop validated ops in acceptance order; replay runs them
        # phase-bucketed, which can disagree when ops overlap structurally.
        # In acceptance order the replay would redo the loop's own applies.
        replayed, index = src, src_index
        for op in ordered:
            replayed, matched = CATALOG[op.kind].apply(replayed, op, index)
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
    REPLACE_RULE entry so the replay identity holds for deletions too.  The
    search proves each other rule; checked here are ``g1``'s invariants,
    ``g1prime`` rules that share a name and that fallback bodies replay.
    """
    if problems := grammar_problems(g1):
        raise TransformError("config application broke grammar invariants: " + "; ".join(problems))
    src_rules = {r.name: r for r in g1.rules}
    # Each paired G1' rule is signed once, for the search and the checks.
    target_sigs = [rule_signature(r) if r.name in src_rules else None for r in g1prime.rules]
    dst_rules = {r.name: (r, sig) for r, sig in zip(g1prime.rules, target_sigs)}
    for rule, sig in zip(g1prime.rules, target_sigs):
        if dst_rules[rule.name][1] != sig:
            raise ExtractionError(f"extracted config does not replay rule {rule.name!r}")
    names = [r.name for r in g1.rules]
    removed = [n for n in names if n not in dst_rules]
    entries: list[TransformOp] = []
    fallback_count = len(removed)
    for rule_name in names:
        if rule_name in dst_rules:
            src = src_rules[rule_name]
            dst, dst_sig = dst_rules[rule_name]
            ops, fell_back = infer_rule_ops(src, dst, rule_signature(src), dst_sig)
            if fell_back:
                replaced, _ = CATALOG[OpKind.REPLACE_RULE].apply(src, ops[0], None)
                if rule_signature(replaced) != dst_sig:
                    raise ExtractionError(f"extracted config does not replay rule {rule_name!r}")
            fallback_count += fell_back
            entries.extend(ops)
    entries.extend(
        TransformOp(OpKind.REPLACE_RULE, rule_scope(n), {"remove": True}) for n in removed
    )

    provenance = (
        f"extracted from {g1.name or 'unnamed'} pair"
        if entries
        else f"identity: {g1.name or 'unnamed'} pair has no rule differences"
    )
    config = TransformationConfig(entries=tuple(entries), provenance=provenance)
    return ExtractionResult(config=config, fallback_count=fallback_count)
