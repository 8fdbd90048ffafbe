import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def snapshot_module(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_snapshot", ROOT / "scripts" / "bench_snapshot.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Two pairs of one-sample runs of the fastest workload keep the test
    # at a few seconds; the shape is what is tested.
    declared = module._benchmark()
    monkeypatch.setattr(module, "PAIRS", 2)
    monkeypatch.setattr(
        module,
        "_benchmark",
        lambda: dict(declared, run_seconds=0, workloads=[{"name": "bench_chunked"}]),
    )
    return module


def _checkout_copy(tmp_path):
    """A checkout root with perfbench/ and BENCHMARK.json but no clipbench sources."""
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "src").mkdir()
    return tmp_path


# Stands in for a parent's run.py: its fingerprint counts the runs.
STUB_RUN = """import json, pathlib
count = pathlib.Path(__file__).with_name("count")
n = int(count.read_text()) if count.exists() else 0
count.write_text(str(n + 1))
print(json.dumps({"environment": {}}))
print(json.dumps({"fingerprint": n}))
metrics = {m["name"]: {"value": 1.0} for m in json.loads(pathlib.Path(%r).read_text())["end_to_end"]}
print(json.dumps({"correct": CORRECT, "attempted": 1, "failed": 0, "metrics": metrics}))
"""


def test_snapshot_records_walls_environment_and_outcomes(snapshot_module):
    result = snapshot_module.snapshot("t", ROOT)
    json.dumps(result)
    assert result["protocol"]["pairs"] == 2 and result["protocol"]["seconds"] == 0
    end_to_end = [m["name"] for m in snapshot_module._benchmark()["end_to_end"]]
    record = result["workloads"]["bench_chunked"]
    assert record["first"] == ["parent", "change"]
    assert set(record["environment"]) >= {"python", "platform", "cpu_count"}
    for side in ("parent", "change"):
        assert record[side]["failed"] == [0, 0]
        for name in end_to_end:
            summary = record[side]["metrics"][name]
            assert len(summary["runs"]) == 2
            assert 0 < summary["min"] <= summary["median"] <= summary["max"]
            assert summary["iqr"] >= 0
    assert record["parent"]["fingerprint"] == record["change"]["fingerprint"]
    assert record["fingerprints_agree"] is True
    for name in end_to_end:
        ratio = record["ratios"][name]
        parent, change = (record[s]["metrics"][name]["runs"] for s in ("parent", "change"))
        assert ratio["runs"] == [c / p for p, c in zip(parent, change)]
        assert 0 <= ratio["change_won"] <= 2


def test_snapshot_fails_loudly_when_a_run_fails(snapshot_module, tmp_path, monkeypatch):
    # No clipbench sources: the parent's run.py exits 2 on the first run.
    parent = _checkout_copy(tmp_path / "nosrc")
    with pytest.raises(SystemExit, match="^parent bench_chunked: perfbench/run.py exited 2"):
        snapshot_module.snapshot("t", parent)

    # An edited reference routine changes every normalised number, so it
    # is refused before any run.
    parent = _checkout_copy(tmp_path / "edited")
    with open(parent / "perfbench" / "reference.py", "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    with pytest.raises(SystemExit, match="^parent: perfbench/reference.py differs"):
        snapshot_module.snapshot("t", parent)

    (parent / "perfbench" / "run.py").unlink()
    with pytest.raises(SystemExit, match="^parent: no perfbench/run.py"):
        snapshot_module.snapshot("t", parent)

    # A run that reports correct: false, and a side whose fingerprint
    # changes between its own runs; both sides run the stub.
    for correct, message in (
        ("False", "^parent bench_chunked: perfbench/run.py reported correct: false"),
        ("True", "^change bench_chunked: fingerprint changed between runs"),
    ):
        stub = STUB_RUN.replace("CORRECT", correct) % str(ROOT / "BENCHMARK.json")
        parent, change = (_checkout_copy(tmp_path / correct / side) for side in ("p", "c"))
        for checkout in (parent, change):
            (checkout / "perfbench" / "run.py").write_text(stub, encoding="utf-8")
        monkeypatch.setattr(snapshot_module, "ROOT", change)
        with pytest.raises(SystemExit, match=message):
            snapshot_module.snapshot("t", parent)
