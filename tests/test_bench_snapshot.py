import importlib.util
import json
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
    # A reduced protocol keeps the test fast; the shape is what is tested.
    monkeypatch.setattr(module, "RUNS", 2)
    monkeypatch.setattr(
        module, "BENCH_ARGS", ("bench", "--lines", "300", "--reps", "2", "--format", "json")
    )
    monkeypatch.setattr(module, "VERIFY_ARGS", ("verify", "--cases", "200"))
    return module


def test_snapshot_records_walls_environment_and_outcomes(snapshot_module):
    result = snapshot_module.snapshot("t", ROOT / "src")
    json.dumps(result)
    for name in ("bench", "verify"):
        wall = result[name]["wall_s"]
        assert len(wall["runs"]) == 2
        assert 0 < wall["min"] <= wall["median"]
    assert set(result["environment"]) >= {"python", "platform", "cpu_count"}
    per_rep = result["bench"]["clip_s_per_rep"]
    assert len(per_rep) == 7
    assert all(len(v["runs"]) == 2 * 2 for v in per_rep.values())
    outcomes = result["bench"]["outcomes"]
    assert len({o["accepted"] for o in outcomes.values()}) == 1
    assert len(result["verify"]["stdout_sha256"]) == 64


def test_snapshot_fails_loudly_when_a_run_fails(snapshot_module):
    snapshot_module.VERIFY_ARGS = ("verify", "--cases", "-1")
    with pytest.raises(SystemExit, match="exited 2"):
        snapshot_module.snapshot("t", ROOT / "src")
