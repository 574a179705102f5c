"""Stage-level benchmark of xtadapt's replay loop and adapt session.

Run from the repository root:

    python3 perfbench/run.py --workload replay-corpus --seed 1 --seconds 30 --trace 0

Inputs are generated from ``--seed``.  The run sets up, then runs whole
rounds of items until ``--seconds`` have passed, checks every output against
expectations the benchmark builds itself, and prints one JSON object as its
last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced run
with ``--trace 1``).  A line of stage details comes before it, and the whole
result is written to ``perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

LAYER_MODULES = ("parsing", "model", "transform", "extract", "evaluate", "conformance", "llm")
SETUP_REPEATS = 5
RESULTS = HERE / "results"


class Lib:
    """The xtadapt layer modules, imported from this checkout's ``src``."""

    def __init__(self) -> None:
        for name in LAYER_MODULES:
            setattr(self, name, importlib.import_module(f"xtadapt.{name}"))


def import_lib() -> Lib:
    """A fresh import of the package: every xtadapt module is dropped from
    the module cache first, so each set-up pays the full import."""
    for name in [m for m in sys.modules if m == "xtadapt" or m.startswith("xtadapt.")]:
        del sys.modules[name]
    package = importlib.import_module("xtadapt")
    origin = Path(package.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"xtadapt was imported from {origin}, not from {SRC}")
    return Lib()


def setup(args) -> tuple[Lib, workloads.Workload, list[workloads.Item], float]:
    """Import the package, build the first round and parse its inputs once;
    repeated, and timed by the median.  The last repetition is kept."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib = import_lib()
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, args.rules)
        first = workload.next_round()
        for item in first:
            for text in workloads.input_texts(item):
                workloads.parse_text(lib, text)
        times.append(time.perf_counter() - t0)
    return lib, workload, first, statistics.median(times)


def warm_up(lib, args) -> None:
    """One untimed smoke-size round, so lazy imports and regex caches are
    filled before timing starts."""
    workload = workloads.WORKLOADS[args.workload](args.seed + 10**6, True)
    for item in workload.next_round():
        try:
            workloads.run_item(lib, item)
        except Exception:  # noqa: BLE001 - warm-up only; items are checked later
            pass


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, help="run exactly this many rounds instead")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    parser.add_argument("--rules", type=int, help="replay-scale grammar size (default 200)")
    args = parser.parse_args(argv)

    if not (SRC / "xtadapt").is_dir():
        print(f"error: no xtadapt package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        lib, workload, first_round, setup_s = setup(args)
    except ImportError as err:
        print(f"error: cannot import xtadapt: {err}", file=sys.stderr)
        return 2
    warm_up(lib, args)

    tracer = Tracer() if args.trace else None
    item_ms: list[float] = []  # untraced items
    traced_ms: list[float] = []
    stage_ms: dict[str, list[float]] = {s: [] for s in workloads.STAGES}
    failures: list[str] = []
    unexpected = 0
    attempted = 0
    digest = hashlib.sha256()
    gc.collect()

    # A traced run alternates untraced and traced rounds; it needs one of each.
    min_rounds = 2 if args.trace else 1
    start = time.perf_counter()
    rounds = 0
    batch = first_round
    while True:
        if args.rounds is not None:
            if rounds >= args.rounds:
                break
        elif rounds >= min_rounds and time.perf_counter() - start >= args.seconds:
            break
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.install()
        for item in batch:
            attempted += 1
            if traced:
                tracer.begin(attempted)
            t0 = time.perf_counter()
            try:
                workloads.run_item(lib, item)
                elapsed = time.perf_counter() - t0
                problems = workloads.check_item(item)
            except Exception as err:  # noqa: BLE001 - a crash is a failed item
                elapsed = time.perf_counter() - t0
                problems = [f"{type(err).__name__}: {err}"]
            finally:
                if traced:
                    tracer.end()
            (traced_ms if traced else item_ms).append(elapsed * 1000)
            if not traced:
                for stage, secs in item.stages.items():
                    stage_ms[stage].append(secs * 1000)
            digest.update(f"{attempted}:{item.kind}\n".encode())
            for key in sorted(item.outputs):
                digest.update(f"{key}\n{item.outputs[key]}\n".encode())
            if problems:
                failures.append(f"{item.kind}: {problems[0]}")
                if item.kind not in workload.kept_failure_kinds:
                    unexpected += 1
        if traced:
            tracer.uninstall()
        rounds += 1
        batch = workload.next_round()
    wall_s = time.perf_counter() - start

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not item_ms:
        item_ms = traced_ms
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "items": attempted,
        "wall_s": round(wall_s, 3),
        "digest": digest.hexdigest(),
        "item_ms_p95": percentile(item_ms, 95) if len(item_ms) >= 200 else None,
        "stage_ms_p50": {s: statistics.median(v) for s, v in stage_ms.items() if v},
        "failures": sorted(set(failures))[:20],
    }
    if args.trace:
        metrics = tracer.metrics(len(traced_ms), traced_ms, item_ms)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "items_per_s": {"value": len(item_ms) / (sum(item_ms) / 1000), "unit": "1/s"},
            "item_ms_p50": {"value": statistics.median(item_ms), "unit": "ms"},
        }
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    write_results(args, result, detail, tracer)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def write_results(args, result: dict, detail: dict, tracer: Tracer | None) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    (RESULTS / f"{stem}.json").write_text(
        json.dumps({"result": result, "detail": detail}, indent=2) + "\n", encoding="utf-8"
    )
    if tracer is not None:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.raw_spans():
                handle.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    sys.exit(main())
