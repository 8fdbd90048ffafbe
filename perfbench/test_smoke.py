"""Smoke test of the benchmark at tiny sizes (a few seconds):

    python3 -m pytest perfbench/test_smoke.py -q
"""

import sys
from pathlib import Path

import pytest

import run
import workload as wl

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from clipbench import bench  # noqa: E402
from clipbench.clippers import AlgorithmId  # noqa: E402

TINY = {
    "bench_single": {"lines": 300, "reps": 2, "algorithms": wl.ALGORITHMS},
    "bench_chunked": {"lines": 300, "reps": 2, "algorithms": ("CS", "Proposed"),
                      "chunk_size": 128},
    "verify_sweep": {"cases": 200, "shift": 1e6},
}


def _tiny_verify(trace):
    return {"workload": "verify_sweep", "seed": 7, "trace": trace, "sizes": TINY["verify_sweep"]}


def test_every_declared_metric_is_emitted_with_its_unit():
    spec, units = run._declared()
    assert [w["name"] for w in spec["workloads"]] == list(wl.SIZES)
    for workload in wl.SIZES:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run.measure(workload, 7, 0.0, trace, sizes=TINY[workload])
            line = run._result_line(result, units, [m["name"] for m in spec[group]])
            assert line["correct"], result["errors"]
            assert line["failed"] == 0 and line["attempted"] >= 1
            for m in spec[group]:
                emitted = line["metrics"][m["name"]]
                assert emitted["unit"] == m["unit"]
                assert isinstance(emitted["value"], (int, float))
            if group == "end_to_end":
                assert all(v["value"] > 0 for v in line["metrics"].values())


def test_broken_kernel_raises_failed_share():
    def never_clips(x1, y1, x2, y2, *window):
        return (x1, y1, x2, y2)

    clean = wl.run_sample(_tiny_verify(True))
    broken = wl.run_sample(_tiny_verify(True), kernels={AlgorithmId.PROPOSED: never_clips})
    assert clean["failed"] == 0 and not clean["errors"]
    assert broken["failed"] > 0 and broken["errors"]
    assert broken["layers"]["verify.failed_share"] > clean["layers"]["verify.failed_share"]


def test_trace_fails_loudly_when_a_layer_is_missing(monkeypatch):
    monkeypatch.delattr(bench, "_materialize")
    with pytest.raises(wl.MissingLayer, match="_materialize"):
        wl.run_sample(_tiny_verify(True))


def test_trace_fails_loudly_when_a_layer_is_never_called():
    with pytest.raises(wl.MissingLayer, match="never called"):
        wl._require_calls(wl.Tracer(), "bench_single")


def test_times_are_scaled_to_the_reference_speed():
    result = {"correct": True, "attempted": 1, "failed": 0, "reference_s": run.REF_S * 2,
              "metrics": {"wall_s": 4.0, "clips_per_s": 10.0, "peak_rss_mib": 7.0}}
    units = {"wall_s": "s", "clips_per_s": "1/s", "peak_rss_mib": "MiB"}
    line = run._result_line(result, units, list(units))
    assert {n: m["value"] for n, m in line["metrics"].items()} == {
        "wall_s": 2.0, "clips_per_s": 20.0, "peak_rss_mib": 7.0}
