#!/usr/bin/env python3
"""clipbench benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload bench_single --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each sample is a fresh, single-threaded process (workload.py) that
imports clipbench from ``src`` of the checkout this file sits in.  A run
repeats samples for about ``--seconds`` (at least one; the last may end
up to half a sample late), times a fixed unit of reference work
(reference.py) after each, and reports every time scaled to a host on
which that unit takes REF_S seconds.  ``--trace 0`` prints the
end-to-end metrics, means over the samples; ``--trace 1`` alternates
untraced and traced samples and prints the per-layer metrics, medians
over the traced samples, with the wall-time difference as the tracing
overhead.  Metric names and units come from BENCHMARK.json.  The last
stdout line is the JSON result; ``--workload all`` runs every workload,
traced and untraced, and ends with one combined JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
import workload as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # no run may take three minutes
# Every time the benchmark reports is scaled to a host on which one unit
# of reference work (reference.py) takes REF_S seconds: the host's speed
# drifts by a third over minutes, and the reference, timed between
# samples for REF_SHARE of each sample's wall time, drifts with it.
REF_S = 0.15
REF_SHARE = 0.3
TIME_UNITS = ("s", "ms", "us", "ns")


def _declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, units


def environment():
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
    }


def spawn(spec, timeout):
    """Run one sample process; return (record or None, wall_s, rusage, output)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workload.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=ROOT, env=env,
    )
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        output = proc.stdout.read().decode(errors="replace")
    finally:
        proc.stdout.close()
        # wait4 reports this child's own CPU time and peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.monotonic() - start
        killer.cancel()
        killer.join()
    if proc.returncode == wl.MISSING_LAYER_EXIT:
        raise wl.MissingLayer(output.strip())
    record = None
    if proc.returncode == 0:
        record = json.loads(output.splitlines()[-1])
        record["setup_s"] = record.pop("ready") - start
    return record, wall, usage, output


def time_reference(seconds):
    """Reference timings, at least one, until they add up to ``seconds``."""
    times = [reference.timed()]
    while sum(times) < seconds:
        times.append(reference.timed())
    return times


def expected_operations(sizes):
    """Operations a sample would have checked; for verify, the random cases
    only, since the adversarial suite's size is known from a report."""
    if "cases" in sizes:
        return sizes["cases"] * len(wl.ALGORITHMS) * 2
    return sizes["reps"] * len(sizes["algorithms"])


def measure(workload, seed, seconds, trace, sizes=None):
    """Repeat samples of one workload for about ``seconds``; return the result dict.

    ``sizes`` shrinks the workload for the smoke test."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = {"workload": workload, "seed": seed}
    if sizes:
        base["sizes"] = sizes
    modes = (False, True) if trace else (False,)
    samples = {mode: [] for mode in modes}
    attempted = failed = 0
    errors = []
    fingerprints = set()
    overheads = []  # traced minus untraced wall time, per cycle
    refs = time_reference(0.0)
    while True:
        cycle_start = time.monotonic()
        walls = {}
        for mode in modes:
            record, wall, usage, output = spawn(
                dict(base, trace=mode), deadline - time.monotonic())
            refs += time_reference(REF_SHARE * wall)
            if record is None:
                # A crashed sample counts all of its operations as failed.
                ops = expected_operations(sizes or wl.SIZES[workload])
                attempted += ops
                failed += ops
                errors.append(f"sample crashed:\n{output}")
                continue
            attempted += record["attempted"]
            failed += record["failed"]
            errors += record["errors"]
            fingerprints.add(json.dumps(record["fingerprint"], sort_keys=True))
            record.update(
                wall_s=wall,
                cpu_s=usage.ru_utime + usage.ru_stime,
                peak_rss_mib=usage.ru_maxrss / 1024.0,
            )
            samples[mode].append(record)
            walls[mode] = wall
        if len(walls) == 2:
            overheads.append(walls[True] - walls[False])
        # Stop when the next cycle would end more than half a cycle late.
        now = time.monotonic()
        cycle = now - cycle_start
        if now - start + cycle / 2 > seconds or now + cycle > deadline:
            break
    if len(fingerprints) > 1:
        errors.append("samples of the same seed produced different outputs")
    if not all(samples.values()):
        raise RuntimeError("no sample completed:\n" + "\n".join(errors))

    if trace:
        traced = samples[True]
        metrics = {name: statistics.median(s["layers"][name] for s in traced)
                   for name in traced[0]["layers"]}
        metrics["trace_overhead_s"] = statistics.median(overheads)
    else:
        # Means, not medians: the host flips between a fast and a slow
        # speed, and a median jumps with the share of samples in each.
        untraced = samples[False]
        metrics = {name: statistics.fmean(s[name] for s in untraced)
                   for name in ("wall_s", "cpu_s", "setup_s")}
        metrics["peak_rss_mib"] = statistics.median(s["peak_rss_mib"] for s in untraced)
        metrics["clips_per_s"] = untraced[0]["kernel_calls"] / metrics["wall_s"]
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": {("traced" if mode else "untraced"): len(s) for mode, s in samples.items()},
        "reference_s": statistics.fmean(refs),
        "errors": errors,
        "fingerprint": json.loads(fingerprints.pop()) if len(fingerprints) == 1 else None,
    }


def _normalised(value, unit, scale):
    """A measured value at the reference host speed (see REF_S)."""
    if unit in TIME_UNITS:
        return value * scale
    if unit == "1/s":
        return value / scale
    return value


def _result_line(result, units, names):
    missing = set(names) - set(result["metrics"])
    extra = set(result["metrics"]) - set(names)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                           f"undeclared {sorted(extra)}")
    scale = REF_S / result["reference_s"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": _normalised(result["metrics"][n], units[n], scale),
                        "unit": units[n]} for n in names},
    }


def report(workload, result, line):
    """Print the human-readable block for one result: context, then each metric."""
    print(f"# workload {workload}: samples {result['samples']}, "
          f"reference work {result['reference_s']:.4f} s (times scaled to {REF_S} s)")
    print(json.dumps({"fingerprint": result["fingerprint"]}, sort_keys=True))
    for err in result["errors"][:10]:
        print(f"ERROR: {err}")
    for name, m in line["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "clipbench" / "__init__.py").is_file():
        print(f"perfbench: no clipbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec, units = _declared()
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        runs = [(name, trace) for name in workloads for trace in (0, 1)]
    elif args.workload in workloads:
        runs = [(args.workload, args.trace)]
    else:
        parser.error(f"--workload must be one of {', '.join(workloads)} or all")
    seed = args.seed % (1 << 64)
    # One CPU for this process and the samples it starts, so the
    # reference timed here runs where the samples run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print(json.dumps({"environment": environment()}, sort_keys=True))

    lines = []
    try:
        for name, trace in runs:
            result = measure(name, seed, args.seconds, trace)
            group = "per_layer" if trace else "end_to_end"
            line = _result_line(result, units, [m["name"] for m in spec[group]])
            report(name, result, line)
            lines.append((name, line))
    except wl.MissingLayer as exc:
        print(f"perfbench: traced layer missing: {exc}", file=sys.stderr)
        return 3

    if len(lines) == 1:
        print(json.dumps(lines[0][1]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{name}.{metric}": value
                        for name, line in lines for metric, value in line["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
