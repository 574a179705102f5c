"""The three workloads: how each item is generated, run and checked.

Items call the library in the order the ``xtadapt`` subcommands do, always
through module attributes (``lib.extract.extract_config``) so that the traced
mode sees every call.  Each item starts from grammar text, as the CLI starts
from files, so no parsed object outlives the item that made it.
"""

from __future__ import annotations

import json
import random
import re
import time
from dataclasses import dataclass, field

import grammars as gen

#: Replay items run these stages; adapt sessions run ``load`` and ``session``.
STAGES = ("load", "extract", "apply", "evaluate", "session")

_SCOPE_RE = re.compile(r"@ (?:rule (\S+)|attribute ([^.\s]+)\.)")


@dataclass
class Item:
    kind: str
    data: object
    stages: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, str] = field(default_factory=dict)


class ProgramError(Exception):
    """The program returned something other than the value the item needs."""


def parse_text(lib, text: str):
    """The grammar parsed from ``text``; a parse failure raises."""
    grammar = lib.parsing.parse_grammar(text)
    if not isinstance(grammar, lib.model.Grammar):
        raise ProgramError("parse failed: " + "; ".join(map(str, grammar[:3])))
    return grammar


# ---------------------------------------------------------------------------
# Running one item
# ---------------------------------------------------------------------------


def _replay(lib, item: Item, g1: str, g1prime: str, g2: str, target: str | None) -> None:
    """extract: extract_config -> config_to_json;
    apply: config_from_json -> apply_config -> print_grammar;
    evaluate: parse_grammar -> check_conformance -> evaluate -> to_json_dict."""
    clock = time.perf_counter
    t0 = clock()
    src, dst, evolved = parse_text(lib, g1), parse_text(lib, g1prime), parse_text(lib, g2)
    t1 = clock()
    result = lib.extract.extract_config(src, dst)
    config_json = lib.transform.config_to_json(result.config)
    t2 = clock()
    config = lib.transform.config_from_json(config_json)
    adapted, report = lib.transform.apply_config(config, evolved)
    g2prime = lib.parsing.print_grammar(adapted)
    warnings = "\n".join(report.warnings)
    t3 = clock()
    item.stages.update(load=t1 - t0, extract=t2 - t1, apply=t3 - t2)
    item.outputs.update(config=config_json, g2prime=g2prime, warnings=warnings)
    if target is not None:
        item.outputs["report"] = _evaluate(lib, item, evolved, g2prime, target)


def _evaluate(lib, item: Item, g2, candidate_text: str, target_text: str) -> str:
    """The evaluate stage; ``g2`` is a parsed grammar or, for trios, text."""
    t0 = time.perf_counter()
    if isinstance(g2, str):
        g2 = parse_text(lib, g2)
    candidate = parse_text(lib, candidate_text)
    target = parse_text(lib, target_text)
    findings = lib.conformance.check_conformance(candidate, gen.KNOWN_TERMINALS)
    report = lib.evaluate.evaluate(g2, candidate, target, findings)
    text = json.dumps(report.to_json_dict(), indent=2)
    item.stages["evaluate"] = time.perf_counter() - t0
    return text


def _adapt(lib, item: Item, s: gen.Session) -> None:
    """The ``adapt`` subcommand without a target: the session, its
    transcript and the printed grammar it accepted."""
    clock = time.perf_counter
    t0 = clock()
    g1, g1prime, g2 = parse_text(lib, s.g1), parse_text(lib, s.g1prime), parse_text(lib, s.g2)
    t1 = clock()
    backend = lib.llm.MockBackend(list(s.replies))
    session = lib.llm.run_adaptation(g1, g1prime, g2, backend, known_terminals=gen.KNOWN_TERMINALS)
    transcript = json.dumps(session.to_json_dict(), indent=2)
    g2prime = ""
    if session.extracted_grammar is not None:
        g2prime = lib.parsing.print_grammar(session.extracted_grammar)
    t2 = clock()
    item.stages.update(load=t1 - t0, session=t2 - t1)
    item.outputs.update(transcript=transcript, g2prime=g2prime)


def run_item(lib, item: Item) -> None:
    d = item.data
    if item.kind == "chain":
        _replay(lib, item, d.g1, d.g1prime, d.g2, d.expected)
    elif item.kind in ("pair", "mutant", "composite"):
        g1, g1prime = d
        _replay(lib, item, g1, g1prime, g1, g1prime)
    elif item.kind == "stale":
        g1, g1prime, g2, _ = d
        _replay(lib, item, g1, g1prime, g2, None)
    elif item.kind == "trio":
        item.outputs["report"] = _evaluate(lib, item, d.g2, d.candidate, d.target)
    elif item.kind == "session":
        _adapt(lib, item, d)
    else:
        raise ValueError(item.kind)


# ---------------------------------------------------------------------------
# Checking one item against expectations built by the benchmark
# ---------------------------------------------------------------------------


def _warned_rules(warnings: str) -> set[str]:
    names = set()
    for line in filter(None, warnings.split("\n")):
        m = _SCOPE_RE.search(line)
        names.add(m.group(1) or m.group(2) if m else line)
    return names


def _check_report(report_text: str, n_total, n_correct, same, diff) -> list[str]:
    r = json.loads(report_text)
    rac = 1.0 if n_total == 0 else n_correct / n_total
    want = {"nTotal": n_total, "nCorrect": n_correct, "rac": rac, "same": same, "diff": diff}
    got = {k: r[k] for k in want}
    return [f"report {got} != expected {want}"] if got != want else []


def _required(g1: str, g1prime: str) -> int:
    a, b = gen.rule_tokens(g1), gen.rule_tokens(g1prime)
    return sum(1 for n in set(a) | set(b) if a.get(n) != b.get(n))


def check_item(item: Item) -> list[str]:
    """Problems found in the item's outputs; empty when they are right."""
    d, out = item.data, item.outputs
    problems: list[str] = []
    if item.kind == "chain":
        if not gen.token_equal(out["g2prime"], d.expected):
            problems.append("G2' is not token-equal to the expected grammar")
        warned = _warned_rules(out["warnings"])
        if warned != set(d.dropped):
            problems.append(f"NO_MATCH rules {sorted(warned)} != dropped {sorted(d.dropped)}")
        problems += _check_report(out["report"], d.required, d.required, d.rule_count, 0)
        findings = json.loads(out["report"])["conformance"]
        if findings:
            problems.append(f"conformance findings: {findings[:2]}")
    elif item.kind in ("pair", "mutant", "composite"):
        g1, g1prime = d
        if not gen.token_equal(out["g2prime"], g1prime):
            problems.append("replay on G1 does not reproduce G1'")
        if out["warnings"]:
            problems.append("unexpected warnings: " + out["warnings"][:200])
        n = _required(g1, g1prime)
        rules = len(gen.rule_tokens(g1prime))
        problems += _check_report(out["report"], n, n, rules, 0)
    elif item.kind == "stale":
        rule = d[3]
        body = gen.rule_tokens(out["g2prime"]).get(rule, [])
        kept = any(a == "extra" and b in gen.ASSIGN for a, b in zip(body, body[1:]))
        if not kept and rule not in out["warnings"]:
            problems.append(f"stale-fallback: {rule} lost 'extra' and no warning names it")
    elif item.kind == "trio":
        r = json.loads(out["report"])
        problems += _check_report(
            out["report"], d.required, d.correct, d.total - d.required + d.correct,
            d.required - d.correct,
        )
        want = {}
        if d.required:
            want = {"KEYWORD_REMOVAL": {"occ": d.required, "cor": d.correct, "inc": d.required - d.correct}}
        if r["perType"] != want:
            problems.append(f"perType {r['perType']} != {want}")
    elif item.kind == "session":
        t = json.loads(out["transcript"])
        n_bad = len(d.bad)
        follow_ups = min(n_bad, 3)
        outcome = "ACCEPTED" if n_bad <= 3 else "EXHAUSTED"
        if (t["outcome"], t["followUpsUsed"]) != (outcome, follow_ups):
            problems.append(f"session {t['outcome']}/{t['followUpsUsed']} != {outcome}/{follow_ups}")
        if len(t["turns"]) != 2 * (2 + follow_ups):
            problems.append(f"{len(t['turns'])} turns for {follow_ups} follow-ups")
        if outcome == "ACCEPTED" and not gen.token_equal(out["g2prime"], d.target):
            problems.append("accepted grammar differs from the scripted target")
        if outcome == "EXHAUSTED" and out["g2prime"]:
            problems.append("exhausted session returned a grammar")
    return problems


# ---------------------------------------------------------------------------
# Workloads: rounds of items
# ---------------------------------------------------------------------------


class Workload:
    """Yields rounds of items from a seed; every round has the same make-up,
    so each run attempts whole rounds of the same kinds of operation."""

    name = ""
    #: Failures every run has at this commit, by item kind.
    kept_failure_kinds: tuple[str, ...] = ()

    def __init__(self, seed: int, smoke: bool, rules: int | None = None):
        self.seed = seed
        self.smoke = smoke
        self.round = 0

    def next_round(self) -> list[Item]:
        items = self._round(random.Random(f"{self.name}:{self.seed}:{self.round}"))
        self.round += 1
        return items

    def _round(self, rng: random.Random) -> list[Item]:
        raise NotImplementedError


class ReplayScale(Workload):
    """One step of an evolution chain of ~200-rule composite grammars."""

    name = "replay-scale"

    def __init__(self, seed, smoke, rules=None):
        super().__init__(seed, smoke)
        self.chain = gen.EvolutionChain(seed, rules or (20 if smoke else 200))

    def _round(self, rng):
        return [Item("chain", self.chain.next())]


class ReplayCorpus(Workload):
    """Many small items: fixture pairs, seeded mutants, known-answer trios
    and the fixed stale-fallback items."""

    name = "replay-corpus"
    kept_failure_kinds = ("stale",)
    MUTANTS = 24
    COMPOSITES = 2
    TRIOS = 12

    def __init__(self, seed, smoke, rules=None):
        super().__init__(seed, smoke)
        self.pairs = [(gen.fixture(f"{p}_generated"), gen.fixture(f"{p}_target")) for p in gen.PAIRS]
        self.bases = gen.fixture_grammars()
        self.stale = []
        for p in gen.FALLBACK_PAIRS:
            g1, g1prime = gen.fixture(f"{p}_generated"), gen.fixture(f"{p}_target")
            g2, rule = gen.with_extra_attribute(g1)
            self.stale.append((g1, g1prime, g2, rule))

    def _round(self, rng):
        items = [Item("pair", p) for p in self.pairs]
        items += [Item("stale", s) for s in self.stale]
        for _ in range(self.MUTANTS):
            base = rng.choice(self.bases)
            items.append(Item("mutant", (base, gen.token_mutant(base, rng, rng.randint(1, 3)))))
        # Sizes are drawn from equal bins, so every round costs about the
        # same whatever the seed.
        for lo, hi in _bins(5 if self.smoke else 10, 10 if self.smoke else 40, self.COMPOSITES):
            n = rng.randint(lo, hi)
            rules = gen.composite(rng, n)
            # About half of the rules are marked born at step -1, so they
            # alone are adapted when the grammar is rendered up to step -1.
            for r in rules:
                if rng.random() < 0.5:
                    r.born = -1
                    for a in r.attrs:
                        a.born = -1
            text = gen.render_grammar("Corpus", rules, None)
            items.append(Item("composite", (text, gen.render_grammar("Corpus", rules, -1))))
        for lo, hi in _bins(3, 8 if self.smoke else 30, self.TRIOS):
            total = rng.randint(lo, hi)
            required = rng.randint(0, total)
            items.append(Item("trio", gen.trio(rng, total, required, rng.randint(0, required))))
        rng.shuffle(items)
        return items


class AdaptMock(Workload):
    """Scripted mock-backend sessions; 0 to 4 bad replies before the good one."""

    name = "adapt-mock"

    def _round(self, rng):
        bad_counts = list(range(5))
        rng.shuffle(bad_counts)
        sizes = _bins(5, 15, 5) if self.smoke else _bins(20, 150, 5)
        return [
            Item("session", gen.session(rng, rng.randint(lo, hi), n_bad))
            for (lo, hi), n_bad in zip(sizes, bad_counts)
        ]


def _bins(lo: int, hi: int, k: int) -> list[tuple[int, int]]:
    """``k`` adjacent ranges that split ``lo..hi``."""
    edges = [lo + (hi - lo) * i // k for i in range(k + 1)]
    return [(min(edges[i] + (i > 0), edges[i + 1]), edges[i + 1]) for i in range(k)]


WORKLOADS = {w.name: w for w in (ReplayScale, ReplayCorpus, AdaptMock)}


def input_texts(item: Item) -> list[str]:
    """Every grammar text an item hands to the program."""
    d = item.data
    if item.kind == "chain":
        return [d.g1, d.g1prime, d.g2, d.expected]
    if item.kind == "trio":
        return [d.g2, d.candidate, d.target]
    if item.kind == "session":
        return [d.g1, d.g1prime, d.g2, d.target]
    return list(d[:3]) if item.kind == "stale" else list(d)
