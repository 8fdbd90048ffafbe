#!/usr/bin/env python3
"""Interleaved parent/change A/B over perfbench; writes BENCH_<label>.json.

    git archive <parent-rev> | tar -x -C DIR
    python3 scripts/bench_snapshot.py LABEL --parent DIR

DIR is a checkout root holding ``src/``, ``perfbench/`` and
``BENCHMARK.json``.  For each workload named in this checkout's
BENCHMARK.json the snapshot runs PAIRS pairs of ``DIR/perfbench/run.py``
(the parent) and this checkout's ``perfbench/run.py`` (the change), both
with ``--trace 0``, ``--seconds`` = ``run_seconds`` from BENCHMARK.json
and the seed SEED.  The parent goes first in even pairs, the change in
odd pairs, so a drift of the host's speed does not favour one side.

The snapshot has no timer of its own: every number comes from run.py's
output, which pins each run to one CPU, runs every sample in a fresh
process and scales its times by the reference routine in
``perfbench/reference.py``.  That routine must therefore be the same on
both sides.  Per workload the file holds each side's values in run
order with min, median, max and IQR (inclusive quartiles), the per-pair
change/parent ratio of every end-to-end metric with the number of pairs
the change won (ties count for neither side), and each side's
fingerprint with whether the two agree.  A fingerprint that differs
between the sides is recorded, not fatal: a correctness fix changes it
on purpose.  Running the same tree on both sides (an A/A snapshot) gives
the ratio spread a claimed change must exceed.

Exits with a message naming the side and the workload when a run exits
nonzero or reports ``correct: false``, or when one side's fingerprint
changes between its own runs; and, before any run, when
``DIR/perfbench/run.py`` is missing or ``DIR/perfbench/reference.py``
differs from this checkout's copy.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 1
SIDES = ("parent", "change")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _check_parent(parent: Path) -> None:
    if not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"parent: no perfbench/run.py under {parent}")
    theirs = parent / "perfbench" / "reference.py"
    ours = ROOT / "perfbench" / "reference.py"
    if not theirs.is_file() or theirs.read_bytes() != ours.read_bytes():
        raise SystemExit(
            "parent: perfbench/reference.py differs from this checkout's copy, "
            "so the two sides' normalised times do not compare"
        )


def _perfbench(checkout: Path, side: str, workload: str, seconds: float, metrics) -> dict:
    """One ``perfbench/run.py`` run; its environment, fingerprint and result."""
    where = f"{side} {workload}"
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{where}: perfbench/run.py exited {proc.returncode}:\n{proc.stderr}{proc.stdout}")
    # The environment line, the fingerprint line and the final result line
    # are the JSON objects run.py prints; their keys do not overlap.
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            out.update(json.loads(line))
    if not out.get("correct"):
        raise SystemExit(f"{where}: perfbench/run.py reported correct: false:\n{proc.stdout}")
    missing = [name for name in metrics if name not in out["metrics"]]
    if missing:
        raise SystemExit(f"{where}: perfbench/run.py reported no {', '.join(missing)}")
    return {
        "environment": out["environment"],
        "fingerprint": out["fingerprint"],
        "failed": out["failed"],
        "metrics": {name: out["metrics"][name]["value"] for name in metrics},
    }


def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": list(values), "min": min(values), "median": statistics.median(values),
            "max": max(values), "iqr": q3 - q1}


def _workload(parent: Path, workload: str, seconds: float, end_to_end: dict) -> dict:
    """PAIRS interleaved pairs of one workload, summarised."""
    checkouts = {"parent": parent, "change": ROOT}
    runs = {side: [] for side in SIDES}
    first = []
    for pair in range(PAIRS):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        for side in order:
            run = _perfbench(checkouts[side], side, workload, seconds, end_to_end)
            if runs[side] and run["fingerprint"] != runs[side][0]["fingerprint"]:
                raise SystemExit(f"{side} {workload}: fingerprint changed between runs")
            runs[side].append(run)
            print(f"{workload} pair {pair} {side}: wall_s {run['metrics'].get('wall_s')}",
                  flush=True)

    record = {"first": first, "environment": runs["parent"][0]["environment"]}
    for side in SIDES:
        record[side] = {
            "fingerprint": runs[side][0]["fingerprint"],
            "failed": [run["failed"] for run in runs[side]],
            "metrics": {name: _summary([run["metrics"][name] for run in runs[side]])
                        for name in end_to_end},
        }
    record["fingerprints_agree"] = record["parent"]["fingerprint"] == record["change"]["fingerprint"]
    record["ratios"] = {}
    for name, better in end_to_end.items():
        pairs = list(zip(record["parent"]["metrics"][name]["runs"],
                         record["change"]["metrics"][name]["runs"]))
        record["ratios"][name] = dict(
            _summary([c / p for p, c in pairs]),
            change_won=sum(c < p if better == "lower" else c > p for p, c in pairs))
    return record


def snapshot(label: str, parent: Path) -> dict:
    _check_parent(parent)
    spec = _benchmark()
    seconds = spec["run_seconds"]
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}
    return {
        "label": label,
        "protocol": {"pairs": PAIRS, "seed": SEED, "seconds": seconds, "trace": 0},
        "workloads": {w["name"]: _workload(parent, w["name"], seconds, end_to_end)
                      for w in spec["workloads"]},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--parent", type=Path, required=True,
                        help="checkout root of the parent (src/, perfbench/, BENCHMARK.json)")
    args = parser.parse_args(argv)
    result = snapshot(args.label, args.parent.resolve())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name, record in result["workloads"].items():
        for metric, ratio in record["ratios"].items():
            print(f"{name} {metric}: change/parent median {ratio['median']:.4f} "
                  f"(min {ratio['min']:.4f}, max {ratio['max']:.4f}, IQR {ratio['iqr']:.4f}), "
                  f"change won {ratio['change_won']}/{PAIRS}")
        print(f"{name}: fingerprints agree: {record['fingerprints_agree']}")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
