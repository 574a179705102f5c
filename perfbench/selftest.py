"""Self-test of the benchmark: smoke runs, corrupted outputs, determinism.

    python3 perfbench/selftest.py

1. Every workload runs at smoke size and reports ``correct``; on
   replay-corpus the only failures are the stale-fallback items.
2. Corrupted outputs are reported as failures: a keyword dropped from G2',
   an RAC off by one rule, an accepted session whose grammar differs from
   the script's.
3. The digest of every output (config JSON, printed G2', warnings, report
   JSON, session transcript) is the same under two PYTHONHASHSEED values and
   with the traced mode on, so the trace wrappers change nothing.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import grammars as gen  # noqa: E402
import workloads  # noqa: E402
from run import import_lib  # noqa: E402

ROUNDS = 4  # with --trace 1, rounds 1 and 3 are traced
STALE_PER_ROUND = len(gen.FALLBACK_PAIRS)


def run(workload: str, seed: int, trace: int, hash_seed: str) -> tuple[dict, dict]:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--smoke", "--rounds", str(ROUNDS),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().split("\n")[-2:])
    return detail, result


def smoke_and_determinism(report) -> None:
    for name in sorted(workloads.WORKLOADS):
        runs = {
            ("0", 0): run(name, 7, 0, "0"),
            ("1234", 0): run(name, 7, 0, "1234"),
            ("0", 1): run(name, 7, 1, "0"),
        }
        for (hash_seed, trace), (detail, result) in runs.items():
            kept = STALE_PER_ROUND * ROUNDS if name == "replay-corpus" else 0
            ok = result["correct"] and result["failed"] == kept
            report(ok, f"smoke {name} PYTHONHASHSEED={hash_seed} trace={trace}: "
                   f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")
        digests = {key: detail["digest"] for key, (detail, _) in runs.items()}
        report(len(set(digests.values())) == 1, f"digest {name}: {sorted(set(digests.values()))}")


def _first(workload: workloads.Workload, kind: str, lib) -> workloads.Item:
    while True:
        for item in workload.next_round():
            if item.kind == kind:
                workloads.run_item(lib, item)
                return item


def corruptions(report) -> None:
    lib = import_lib()

    chain = _first(workloads.ReplayScale(3, True), "chain", lib)
    report(not workloads.check_item(chain), "clean chain item passes its check")
    g2prime = chain.outputs["g2prime"]
    chain.outputs["g2prime"] = g2prime.replace("'{'", "", 1)
    report(bool(workloads.check_item(chain)), "keyword dropped from G2' is a failure")
    chain.outputs["g2prime"] = g2prime

    for kind, workload in (("chain", None), ("trio", workloads.ReplayCorpus(3, True))):
        item = chain if kind == "chain" else _first(workload, "trio", lib)
        report(not workloads.check_item(item), f"clean {kind} item passes its check")
        doc = json.loads(item.outputs["report"])
        if doc["nTotal"] == 0:
            doc["nTotal"] = 1
        elif doc["nCorrect"] > 0:
            doc["nCorrect"] -= 1
        else:
            doc["nCorrect"] += 1
        doc["rac"] = doc["nCorrect"] / doc["nTotal"]
        item.outputs["report"] = json.dumps(doc)
        report(bool(workloads.check_item(item)), f"RAC off by one rule on a {kind} item is a failure")

    adapt = workloads.AdaptMock(3, True)
    while True:
        item = _first(adapt, "session", lib)
        if len(item.data.bad) <= 3:
            break
    report(not workloads.check_item(item), "clean accepted session passes its check")
    text = item.outputs["g2prime"]
    item.outputs["g2prime"] = re.sub(r"=Identifier\b", "=ID", text, count=1)
    report(bool(workloads.check_item(item)), "accepted grammar that differs from the script is a failure")


def main() -> int:
    failed = []

    def report(ok: bool, what: str) -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failed.append(what)

    corruptions(report)
    smoke_and_determinism(report)
    print(f"{len(failed)} failed" if failed else "all passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
