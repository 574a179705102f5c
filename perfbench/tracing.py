"""Traced mode: spans around every public function of xtadapt's layers.

Nothing under ``src/`` is edited.  The wrappers replace module attributes,
and because the modules import each other's names with ``from .x import y``
a function is replaced in every module that holds it, for example
``xtadapt.extract.rule_signature`` as well as
``xtadapt.parsing.rule_signature``.

A span records name, start, end, parent span and item id.  Spans are folded
into per-item totals as they end; the raw spans of the first traced item are
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("parsing", "model", "transform", "extract", "evaluate", "conformance", "llm")

#: Public helpers left unwrapped: tree accessors called once per node, whose
#: spans would cost more than the work they time.  Their time counts as
#: self time of the calling layer.
UNWRAPPED = frozenset({"model.children_of", "model.with_children", "model.node_at"})

#: Raw spans kept for the trace file; the first traced item is cut here.
MAX_RAW_SPANS = 50_000

PARSE = "parsing.parse_grammar"
EXTRACT = "extract.extract_config"
INFER = "extract.infer_rule_ops"
EVALUATE = "evaluate.evaluate"


class Tracer:
    def __init__(self) -> None:
        self.item: int | None = None  # id of the item being traced, else None
        self.stack: list[list] = []  # [span id, child ns] of open spans
        self.active: Counter = Counter()  # open spans by name
        self.next_id = 0
        self.inclusive: Counter = Counter()  # ns of outermost spans by name
        self.self_ns: Counter = Counter()  # ns minus child spans, by name
        self.layer_ns: Counter = Counter()  # self ns by layer
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()  # counters taken at span boundaries
        self.raw: list[tuple] = []
        self.raw_item: int | None = None
        self._saved: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"xtadapt.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                    or inspect.isgeneratorfunction(fn)
                    or name in UNWRAPPED
                ):
                    continue
                wrappers[fn] = self._span(fn, name, layer, _HOOKS.get(name))
            lex = getattr(module, "_lex", None)
            if lex is not None:
                wrappers[lex] = self._count_lexed(lex)
        for modname, module in list(sys.modules.items()):
            if modname != "xtadapt" and not modname.startswith("xtadapt."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, value in self._saved:
            setattr(module, attr, value)
        self._saved.clear()

    def _span(self, fn, name: str, layer: str, hook):
        stack, active = self.stack, self.active
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [self.next_id, 0]
            self.next_id += 1
            stack.append(frame)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                own = dur - frame[1]
                self.self_ns[name] += own
                self.layer_ns[layer] += own
                self.calls[name] += 1
                if not active[name]:
                    self.inclusive[name] += dur
                if self.raw_item == self.item and len(self.raw) < MAX_RAW_SPANS:
                    pid = parent[0] if parent is not None else None
                    self.raw.append((frame[0], pid, name, start, end, self.item))
            if hook is not None:
                hook(self, args, result, dur)
            return result

        return traced

    def _count_lexed(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tokens = fn(*args, **kwargs)
            if self.item is not None and self.active[PARSE]:
                self.counts["parse_tokens"] += len(tokens)
            return tokens

        return counted

    # -- per-item bracketing --------------------------------------------------

    def begin(self, item_id: int) -> None:
        if self.raw_item is None:
            self.raw_item = item_id
        self.item = item_id

    def end(self) -> None:
        self.item = None

    # -- results --------------------------------------------------------------

    def metrics(self, n_items: int, item_ms: list[float], untraced_ms: list[float]) -> dict:
        """Per-layer metrics as means per traced item."""
        n = max(n_items, 1)
        ms = lambda ns: ns / 1e6 / n  # noqa: E731
        per = lambda count: count / n  # noqa: E731
        inc, c, calls = self.inclusive, self.counts, self.calls
        parse_s = inc[PARSE] / 1e9
        trials = c["trial_applies"]
        rules = c["rules_evaluated"]
        spans = sum(self.layer_ns.values())
        total_ms = sum(item_ms)
        out = {
            "parsing.parse_grammar_ms": (ms(inc[PARSE]), "ms"),
            "parsing.tokens_per_s": (c["parse_tokens"] / parse_s if parse_s else 0.0, "1/s"),
            "parsing.print_grammar_ms": (ms(inc["parsing.print_grammar"]), "ms"),
            "parsing.rule_signature_calls": (per(calls["parsing.rule_signature"]), "count"),
            "parsing.rule_signature_ms": (ms(inc["parsing.rule_signature"]), "ms"),
            "parsing.token_distance_cells": (per(c["distance_cells"]), "count"),
            "parsing.token_distance_ms": (ms(inc["parsing.token_distance"]), "ms"),
            "model.find_rule_calls": (per(calls["model.find_rule"]), "count"),
            "transform.apply_config_ms": (ms(inc["transform.apply_config"]), "ms"),
            "transform.apply_single_calls": (per(calls["transform.apply_single"]), "count"),
            "transform.apply_single_ms": (ms(inc["transform.apply_single"]), "ms"),
            "transform.config_json_ms": (
                ms(inc["transform.config_to_json"] + inc["transform.config_from_json"]), "ms"),
            "extract.extract_config_ms": (ms(inc[EXTRACT]), "ms"),
            "extract.verify_ms": (ms(c["verify_ns"]), "ms"),
            "extract.infer_rule_ops_ms": (ms(c["infer_ns"]), "ms"),
            "extract.trial_applies": (per(trials), "count"),
            "extract.accepted_ops": (per(c["accepted_ops"]), "count"),
            "extract.accept_ratio": (c["accepted_ops"] / trials if trials else 0.0, "ratio"),
            "extract.fallback_rules": (per(c["fallback_rules"]), "count"),
            "evaluate.evaluate_ms": (ms(inc[EVALUATE]), "ms"),
            "evaluate.classify_ms": (ms(inc["evaluate.classify_adaptations"]), "ms"),
            "evaluate.infer_rule_ops_calls": (per(c["evaluate_infer_calls"]), "count"),
            "evaluate.signatures_per_rule": (
                c["evaluate_signatures"] / rules if rules else 0.0, "ratio"),
            "conformance.check_ms": (ms(inc["conformance.check_conformance"]), "ms"),
            "llm.session_ms": (ms(self.self_ns["llm.run_adaptation"]), "ms"),
            "llm.reply_extract_ms": (ms(inc["llm.extract_grammar_from_reply"]), "ms"),
            "llm.turns": (per(c["turns"]), "count"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = (ms(self.layer_ns[layer]), "ms")
        out["other.self_ms"] = (total_ms / n - spans / 1e6 / n, "ms")
        traced_p50 = _median(item_ms)
        out["trace.item_ms_p50"] = (traced_p50, "ms")
        out["trace.overhead_ms_p50"] = (traced_p50 - _median(untraced_ms), "ms")
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

    def raw_spans(self) -> list[dict]:
        keys = ("id", "parent", "name", "start_ns", "end_ns", "item")
        return [dict(zip(keys, s)) for s in self.raw]


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


# -- counters taken at span boundaries ----------------------------------------


def _distance(t: Tracer, args, result, dur) -> None:
    t.counts["distance_cells"] += len(args[0]) * len(args[1])


def _signature(t: Tracer, args, result, dur) -> None:
    if t.active[EVALUATE]:
        t.counts["evaluate_signatures"] += 1


def _apply_config(t: Tracer, args, result, dur) -> None:
    if t.active[EXTRACT]:
        t.counts["verify_ns"] += dur


def _apply_single(t: Tracer, args, result, dur) -> None:
    if t.active[INFER] and t.active[EXTRACT]:
        t.counts["trial_applies"] += 1


def _infer(t: Tracer, args, result, dur) -> None:
    if t.active[EXTRACT]:
        t.counts["infer_ns"] += dur
        ops, fell_back = result
        if not fell_back:
            t.counts["accepted_ops"] += len(ops)
    if t.active[EVALUATE]:
        t.counts["evaluate_infer_calls"] += 1


def _extract(t: Tracer, args, result, dur) -> None:
    t.counts["fallback_rules"] += result.fallback_count


def _evaluate(t: Tracer, args, result, dur) -> None:
    t.counts["rules_evaluated"] += len(args[2].rules)


def _session(t: Tracer, args, result, dur) -> None:
    t.counts["turns"] += len(result.turns)


_HOOKS = {
    "parsing.token_distance": _distance,
    "parsing.rule_signature": _signature,
    "transform.apply_config": _apply_config,
    "transform.apply_single": _apply_single,
    INFER: _infer,
    EXTRACT: _extract,
    EVALUATE: _evaluate,
    "llm.run_adaptation": _session,
}
