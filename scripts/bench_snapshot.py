#!/usr/bin/env python3
"""Run a fixed, reduced benchmark protocol and write BENCH_<label>.json.

    python3 scripts/bench_snapshot.py LABEL [--src DIR]

The protocol is fixed so that snapshots of different commits compare:
``clipbench bench --lines 200000 --reps 5 --format json`` and
``clipbench verify --cases 100000``, both at the default space and
window, each run RUNS times in a fresh interpreter that imports
clipbench from ``--src`` (default: the ``src`` beside this script; point
it at another checkout's ``src`` to measure that commit).  The host is
noisy, so every wall time is kept and summarised as min and median.

The snapshot also records what must not differ between commits: each
algorithm's accepted count and checksum from the bench report, and a
SHA-256 of the verify output.  The file is written to the repository
root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5
BENCH_ARGS = ("bench", "--lines", "200000", "--reps", "5", "--format", "json")
VERIFY_ARGS = ("verify", "--cases", "100000")


def _run(src: Path, args) -> tuple[float, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "clipbench.cli", *args],
        env=env,
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"clipbench {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return wall, proc.stdout


def _summary(values) -> dict:
    return {"min": min(values), "median": statistics.median(values), "runs": list(values)}


def snapshot(label: str, src: Path) -> dict:
    bench_walls, verify_walls = [], []
    rep_seconds: dict[str, list[float]] = {}
    outcomes: dict[str, dict] = {}
    verify_outputs = set()
    for _ in range(RUNS):
        wall, out = _run(src, BENCH_ARGS)
        bench_walls.append(wall)
        for row in json.loads(out)["timings"]:
            rep_seconds.setdefault(row["algorithm"], []).append(row["seconds"])
            outcome = {"accepted": row["accepted"], "checksum": row["checksum"]}
            if outcomes.setdefault(row["algorithm"], outcome) != outcome:
                raise SystemExit(f"{row['algorithm']}: bench outcome changed between runs")
        wall, out = _run(src, VERIFY_ARGS)
        verify_walls.append(wall)
        verify_outputs.add(out)
    if len(verify_outputs) != 1:
        raise SystemExit("verify output changed between runs")
    return {
        "label": label,
        "protocol": {"runs": RUNS, "bench": list(BENCH_ARGS), "verify": list(VERIFY_ARGS)},
        "environment": {
            "python": f"{platform.python_implementation()} {platform.python_version()}",
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0],
        },
        "bench": {
            "wall_s": _summary(bench_walls),
            "clip_s_per_rep": {alg: _summary(v) for alg, v in rep_seconds.items()},
            "outcomes": outcomes,
        },
        "verify": {
            "wall_s": _summary(verify_walls),
            "stdout_sha256": hashlib.sha256(verify_outputs.pop().encode()).hexdigest(),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output file BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="clipbench source tree")
    args = parser.parse_args(argv)
    result = snapshot(args.label, args.src.resolve())
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for name in ("bench", "verify"):
        wall = result[name]["wall_s"]
        print(f"{name}: wall min {wall['min']:.3f} s, median {wall['median']:.3f} s")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
