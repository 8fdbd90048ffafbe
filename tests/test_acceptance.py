"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1-6 are gating; criterion 7 reports the live performance
ranking without failing the build, because absolute timings depend on
the host.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import os
import re
import subprocess
import sys

import pytest

import clipbench
from clipbench.bench import _materialize, mean_seconds, speedup_percent
from clipbench.cli import main
from clipbench.clippers import KERNELS, AlgorithmId
from clipbench.clippers.skala import EDGE_TABLE, clip_coords as skala_clip
from clipbench.geom import ClipWindow
from clipbench.oracle import ExactClipOutcome
from clipbench.verify import adversarial_segments

import reference_timings as ref
from test_clippers import _check_mirrors, _check_result
from test_oracle_equivalence import REALIZABLE_MASKS, witness_segments

SPACE = ClipWindow(-960.0, -720.0, 960.0, 720.0)
WINDOW = ClipWindow(-100.0, -75.0, 100.0, 75.0)


def test_criterion_1_reference_average_regression():
    for runs, avgs, label in (
        (ref.RUNS_1M, ref.AVG_1M, "1M"),
        (ref.RUNS_10M, ref.AVG_10M, "10M"),
    ):
        for name, column in runs.items():
            assert len(column) == 10
            assert mean_seconds(column) == pytest.approx(avgs[name], abs=0.001), (
                label,
                name,
            )
    print("ACCEPTANCE 1 PASS: per-column means match both reference tables within 0.001 s")


def test_criterion_2_reference_speedup_regression():
    for avgs, speedups, label in (
        (ref.AVG_1M, ref.SPEEDUP_1M, "1M"),
        (ref.AVG_10M, ref.SPEEDUP_10M, "10M"),
    ):
        proposed = avgs["Proposed"]
        for name, expected in speedups.items():
            got = speedup_percent(proposed, avgs[name])
            assert got == pytest.approx(expected, abs=0.01), (label, name, got)
    print("ACCEPTANCE 2 PASS: all twelve speedup percentages match within 0.01 points")


def test_criterion_3_oracle_equivalence_full_scale(capsys):
    code = main(["verify", "--cases", "1000000", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0, out
    match = re.search(r"random grazing: (\d+) of (\d+)", out)
    assert match, out
    grazing, total = int(match.group(1)), int(match.group(2))
    assert total == 1_000_000
    assert grazing < 0.001 * total, (grazing, total)
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 3 PASS: verify at 1M cases exits 0, "
            f"{grazing} grazing cases ({100.0 * grazing / total:.4f}% < 0.1%)"
        )


def test_criterion_4_invariant_suite():
    n_random = 100_000
    buf, _ = _materialize(20260801, SPACE, n_random)
    cases = buf + adversarial_segments(WINDOW)
    for seg in cases:
        for kernel in KERNELS.values():
            res = kernel(*seg, *WINDOW)
            _check_mirrors(kernel, seg, WINDOW, res)
            if res is None:
                continue
            _check_result(res, seg, WINDOW)
            # Idempotence: re-clipping the result leaves it in place.
            again = kernel(*res, *WINDOW)
            assert again is not None and all(
                abs(a - r) <= 1e-9 for a, r in zip(again, res)
            ), (kernel.__module__, seg, res, again)
    print(
        f"ACCEPTANCE 4 PASS: containment, collinearity, idempotence, reflection "
        f"and totality hold for {n_random} seeded + {len(cases) - n_random} "
        f"adversarial cases across all 7 algorithms"
    )


def test_criterion_5_skala_mask_validation():
    witnesses = witness_segments(WINDOW)
    assert set(witnesses) == REALIZABLE_MASKS
    for mask, seg in witnesses.items():
        exact = ExactClipOutcome.of(seg, WINDOW)
        got = skala_clip(*seg, *WINDOW)
        if exact.grazing:
            continue
        if exact.accepted:
            expected = tuple(float(v) for v in exact.ends)
            assert got is not None and got == pytest.approx(expected, abs=1e-9), (mask, seg)
        else:
            assert got is None, (mask, seg)
    # The two alternating masks cannot be realized by any line; the table
    # must treat them as no-intersection entries.
    assert EDGE_TABLE[0b0101] == () and EDGE_TABLE[0b1010] == ()
    print(
        "ACCEPTANCE 5 PASS: 14 realizable corner-sign masks verified by witness "
        "lines against the oracle; 2 impossible masks pinned to empty entries"
    )


# Every algorithm's (accepted, checksum) on the default 1M-line protocol
# at seed 1.  LB and CB return bit-identical results, and so do NLN,
# Skala and KWC.
STREAM_PINS_1M = {
    "CS": ("163350", "b39fc526f310d3c7"),
    "LB": ("163350", "a344e04801429bb5"),
    "CB": ("163350", "a344e04801429bb5"),
    "NLN": ("163350", "7b1d8a570a1dc780"),
    "Skala": ("163350", "7b1d8a570a1dc780"),
    "KWC": ("163350", "7b1d8a570a1dc780"),
    "Proposed": ("163350", "1a8ee791560fb61f"),
}


@pytest.fixture(scope="module")
def bench_1m_runs():
    """Two independent 1M-line x 3-rep CLI bench runs at seed 1, each in a
    fresh process on this package's source, started together, as csv
    rows (algorithm, run, seconds, accepted, checksum); criterion 6
    checks them and criterion 7 ranks their seconds."""
    src = os.path.dirname(os.path.dirname(clipbench.__file__))
    paths = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    argv = [sys.executable, "-m", "clipbench.cli", "bench", "--lines", "1000000",
            "--reps", "3", "--seed", "1", "--format", "csv"]
    children = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True) for _ in range(2)]
    try:
        outputs = [child.communicate(timeout=600) for child in children]
    finally:
        for child in children:
            child.kill()
    for child, (_, err) in zip(children, outputs):
        assert child.returncode == 0, err
    return [[line.split(",") for line in out.strip().split("\n")[1:]] for out, _ in outputs]


def test_criterion_6_benchmark_determinism(bench_1m_runs, capsys):
    masked = [
        [(algo, run, accepted, checksum) for algo, run, _seconds, accepted, checksum in rows]
        for rows in bench_1m_runs
    ]
    assert masked[0] == masked[1]
    accepted_counts = {row[2] for row in masked[0]}
    assert len(accepted_counts) == 1
    assert masked[0] == [
        (algo.value, str(rep), *STREAM_PINS_1M[algo.value])
        for rep in range(1, 4)
        for algo in AlgorithmId
    ]
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 6 PASS: two 1M-line bench runs byte-identical except "
            f"seconds; all 7 algorithms accepted {accepted_counts.pop()} segments"
        )


def test_criterion_7_performance_ordering_informative(bench_1m_runs, capsys):
    averages = {
        algo.value: mean_seconds(
            float(seconds)
            for rows in bench_1m_runs
            for name, _run, seconds, _accepted, _checksum in rows
            if name == algo.value
        )
        for algo in AlgorithmId
    }
    ranking = sorted(averages.items(), key=lambda kv: kv[1])
    order = ", ".join(f"{name} {avg:.3f}s" for name, avg in ranking)
    fastest = ranking[0][0]
    verdict = (
        "Proposed ranked fastest"
        if fastest == "Proposed"
        else f"Proposed did not rank fastest on this host ({fastest} did)"
    )
    with capsys.disabled():
        print(
            f"\nACCEPTANCE 7 PASS (informative, non-gating): {verdict}; "
            f"ranking over 6 reps: {order}"
        )
