import pytest
from hypothesis import given, strategies as st

from clipbench.bench import (
    BenchConfig,
    RunTiming,
    build_report,
    mean_seconds,
    next_u64,
    parse_report,
    render_report,
    run_bench,
    speedup_percent,
    _BLOCK,
    _materialize,
)
from clipbench.clippers import KERNELS, AlgorithmId
from clipbench.geom import ClipWindow
from clipbench.oracle import clip_exact

import reference_timings as ref

SPACE = ClipWindow(-960.0, -720.0, 960.0, 720.0)
WINDOW = ClipWindow(-100.0, -75.0, 100.0, 75.0)


# ---------------------------------------------------------------------------
# Generator

def test_splitmix64_reference_sequence():
    v1, state = next_u64(0)
    v2, state = next_u64(state)
    assert v1 == 0xE220A8397B1DCDAF
    assert v2 == 0x6E789E6AA1B965F4


def test_splitmix64_same_seed_same_outputs():
    a = next_u64(12345)
    b = next_u64(12345)
    assert a == b


@given(st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_splitmix64_outputs_fit_64_bits(seed):
    value, state = next_u64(seed)
    assert 0 <= value < 1 << 64
    assert 0 <= state < 1 << 64


def _splitmix_reference(seed, n):
    # Independent reimplementation of the published generator, used only
    # as a cross-check for the production stream.
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
        out.append(z ^ (z >> 31))
    return out


def test_gen_segment_matches_independent_mapping():
    # Recompute the first segment for seed 0 straight from an independent
    # generator and the documented mapping lo + (u / 2^64) * (hi - lo).
    us = _splitmix_reference(0, 4)
    assert us[0] == 0xE220A8397B1DCDAF  # anchors the reimplementation
    assert us[1] == 0x6E789E6AA1B965F4
    expected = (
        -960.0 + (us[0] / 2**64) * 1920.0,
        -720.0 + (us[1] / 2**64) * 1440.0,
        -960.0 + (us[2] / 2**64) * 1920.0,
        -720.0 + (us[3] / 2**64) * 1440.0,
    )
    buf, _ = _materialize(0, SPACE, 1)
    assert buf == [expected]


def test_gen_segment_coordinates_in_range():
    buf, _ = _materialize(99, SPACE, 500)
    for x1, y1, x2, y2 in buf:
        for x, y in ((x1, y1), (x2, y2)):
            assert SPACE.xmin <= x < SPACE.xmax
            assert SPACE.ymin <= y < SPACE.ymax


def test_materialized_buffer_matches_gen_segment_stream():
    # Chunking relies on this: a buffer continued from the returned state
    # is the next part of the same stream, and ends in the same state.
    head, mid_state = _materialize(7, SPACE, 30)
    tail, end_state = _materialize(mid_state, SPACE, 20)
    whole, whole_state = _materialize(7, SPACE, 50)
    assert head + tail == whole
    assert end_state == whole_state


def _reference_stream(seed, count):
    # The stream as float.hex strings, from the independent generator and
    # the documented mapping, and the state a splitmix64 stream reaches
    # after 4 * count draws.
    us = _splitmix_reference(seed, 4 * count)
    lo = (SPACE.xmin, SPACE.ymin) * 2
    span = (SPACE.xmax - SPACE.xmin, SPACE.ymax - SPACE.ymin) * 2
    hexes = [(lo[i % 4] + (u / 2**64) * span[i % 4]).hex() for i, u in enumerate(us)]
    return hexes, (seed + 4 * count * 0x9E3779B97F4A7C15) % 2**64


def _hexes(buf):
    return [c.hex() for seg in buf for c in seg]


# Seeds near 2^64 wrap a lane's state inside the first block; the counts
# fall on both sides of a block boundary.
@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64 - 5])
@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7])
def test_materialize_is_bit_identical_to_reference(seed, count):
    buf, state = _materialize(seed, SPACE, count)
    assert all(type(seg) is tuple and len(seg) == 4 for seg in buf)
    assert (_hexes(buf), state) == _reference_stream(seed, count)


def test_materialize_continues_across_a_block_seam():
    # Split inside a block, so the continuation starts mid-block and its
    # own last block is partial.
    head, mid_state = _materialize(2**64 - 5, SPACE, _BLOCK + 3)
    tail, end_state = _materialize(mid_state, SPACE, 2 * _BLOCK + 10)
    assert (_hexes(head + tail), end_state) == _reference_stream(2**64 - 5, 3 * _BLOCK + 13)


# ---------------------------------------------------------------------------
# Statistics

def test_mean_reproduces_reference_averages():
    assert mean_seconds(ref.RUNS_1M["CS"]) == pytest.approx(1.3649, abs=1e-12)
    assert f"{mean_seconds(ref.RUNS_1M['CS']):.3f}" == "1.365"
    assert f"{mean_seconds(ref.RUNS_10M['Proposed']):.3f}" == "10.428"


def test_mean_of_single_value():
    assert mean_seconds([0.25]) == 0.25


def test_mean_of_empty_sequence_is_an_error():
    with pytest.raises(ValueError):
        mean_seconds([])


def test_speedup_reference_percentages():
    assert speedup_percent(1.165, 1.365) == pytest.approx(17.17, abs=0.01)
    assert speedup_percent(1.165, 1.244) == pytest.approx(6.78, abs=0.01)
    assert speedup_percent(10.428, 13.537) == pytest.approx(29.81, abs=0.01)
    assert speedup_percent(0.5, 0.5) == 0.0


def test_speedup_is_monotone_in_gap():
    gaps = [speedup_percent(1.0, 1.0 + d) for d in (0.0, 0.1, 0.2, 0.5)]
    assert gaps == sorted(gaps)


def test_speedup_requires_positive_reference():
    with pytest.raises(ValueError):
        speedup_percent(0.0, 1.0)


# ---------------------------------------------------------------------------
# Config validation

def test_config_rejects_window_outside_space():
    with pytest.raises(ValueError):
        BenchConfig(space=WINDOW, window=SPACE)


def test_config_rejects_non_positive_counts():
    with pytest.raises(ValueError):
        BenchConfig(lines_per_run=0)
    with pytest.raises(ValueError):
        BenchConfig(repetitions=0)


def test_config_rejects_bad_seed_and_duplicates():
    with pytest.raises(ValueError):
        BenchConfig(seed=-1)
    with pytest.raises(ValueError):
        BenchConfig(algorithms=(AlgorithmId.PROPOSED, AlgorithmId.PROPOSED))
    with pytest.raises(ValueError):
        BenchConfig(algorithms=())


# ---------------------------------------------------------------------------
# Harness

def test_report_shape_single_line_single_rep():
    cfg = BenchConfig(lines_per_run=1, repetitions=1, seed=3)
    report = run_bench(cfg)
    assert len(report.timings) == len(cfg.algorithms)
    for t in report.timings:
        assert t.seconds > 0
        assert t.run_index == 1
        assert 0 <= t.accepted_count <= 1


def test_report_completeness():
    cfg = BenchConfig(lines_per_run=100, repetitions=3, seed=11)
    report = run_bench(cfg)
    assert len(report.timings) == 7 * 3


def test_equal_seed_equal_accepted_across_algorithms_and_oracle():
    cfg = BenchConfig(lines_per_run=2000, repetitions=1, seed=42)
    report = run_bench(cfg)
    counts = {t.accepted_count for t in report.timings}
    assert len(counts) == 1
    # Cross-check the shared count against the exact clipper on the same
    # stream (the seed produces no grazing cases, so counts must agree).
    buf, _ = _materialize(42, SPACE, 2000)
    exact_accepted = 0
    grazing = 0
    for seg in buf:
        o = clip_exact(seg, WINDOW.bounds())
        exact_accepted += o.accepted
        grazing += o.grazing
    assert grazing == 0
    assert counts == {exact_accepted}


def test_determinism_everything_but_seconds():
    cfg = BenchConfig(lines_per_run=1500, repetitions=2, seed=5)
    a = run_bench(cfg)
    b = run_bench(cfg)
    stripped_a = [(t.algorithm, t.run_index, t.accepted_count, t.checksum) for t in a.timings]
    stripped_b = [(t.algorithm, t.run_index, t.accepted_count, t.checksum) for t in b.timings]
    assert stripped_a == stripped_b


def test_multi_chunk_run_matches_single_chunk_counts(monkeypatch):
    import clipbench.bench as bench_mod

    generated = []

    def counting_materialize(state, space, count):
        buf, state = _materialize(state, space, count)
        generated.append(len(buf))
        return buf, state

    monkeypatch.setattr(bench_mod, "_materialize", counting_materialize)
    cfg = BenchConfig(lines_per_run=3000, repetitions=2, seed=9)
    whole = run_bench(cfg)
    assert generated == [3000]
    generated.clear()
    monkeypatch.setattr(bench_mod, "CHUNK_SIZE", 1000)
    chunked = run_bench(cfg)
    # The stream is generated once per run, not once per repetition.
    assert generated == [1000, 1000, 1000]
    key = lambda r: [(t.algorithm, t.run_index, t.accepted_count, t.checksum) for t in r.timings]
    assert key(whole) == key(chunked)
    assert len(key(chunked)) == 7 * 2


def _with_proposed_kernel(monkeypatch, kernel):
    import clipbench.bench as bench_mod

    monkeypatch.setattr(bench_mod, "KERNELS", {**KERNELS, AlgorithmId.PROPOSED: kernel})


def test_disagreeing_accepted_counts_raise(monkeypatch):
    _with_proposed_kernel(monkeypatch, lambda *args: None)
    cfg = BenchConfig(lines_per_run=500, repetitions=2, seed=4)
    with pytest.raises(RuntimeError, match="Proposed rep 1 accepted 0"):
        run_bench(cfg)


def test_checksum_changing_between_reps_raises(monkeypatch):
    # Clips like Proposed over the warm-up and the first repetition, then
    # nudges every accepted endpoint: accepted counts still agree, but the
    # second repetition's checksum differs from the first.
    real = KERNELS[AlgorithmId.PROPOSED]
    lines = 500
    calls = [0]

    def drifting(*args):
        calls[0] += 1
        r = real(*args)
        if r is None or calls[0] <= 2 * lines:
            return r
        return tuple(v + 1e-6 for v in r)

    _with_proposed_kernel(monkeypatch, drifting)
    cfg = BenchConfig(lines_per_run=lines, repetitions=2, seed=4)
    with pytest.raises(RuntimeError, match="Proposed rep 2 checksum"):
        run_bench(cfg)


# ---------------------------------------------------------------------------
# Rendering

def _injected_report(runs, lines):
    algos = tuple(AlgorithmId)
    cfg = BenchConfig(lines_per_run=lines, repetitions=10, seed=1, algorithms=algos)
    timings = []
    for algo in algos:
        for i, sec in enumerate(runs[algo.value], start=1):
            timings.append(RunTiming(algo, i, sec, 0, 0))
    return build_report(cfg, timings)


def test_csv_header_and_shape():
    cfg = BenchConfig(lines_per_run=10, repetitions=2, seed=1)
    text = render_report(run_bench(cfg), "csv")
    lines = text.strip().split("\n")
    assert lines[0] == "algorithm,run,seconds,accepted,checksum"
    assert len(lines) == 1 + 7 * 2


def test_json_round_trip():
    cfg = BenchConfig(lines_per_run=25, repetitions=2, seed=8)
    report = run_bench(cfg)
    text = render_report(report, "json")
    back = parse_report(text)
    assert back == report


def test_markdown_reproduces_reference_average_row():
    report = _injected_report(ref.RUNS_1M, 1_000_000)
    md = render_report(report, "md")
    avg_row = next(line for line in md.splitlines() if line.startswith("| Avg |"))
    # Column order: CS, LB, CB, NLN, Skala, KWC, Proposed.
    assert avg_row == "| Avg | 1.365 | 1.256 | 1.479 | 1.445 | 1.310 | 1.244 | 1.165 |"


def test_markdown_has_run_rows_and_speedups():
    report = _injected_report(ref.RUNS_1M, 1_000_000)
    md = render_report(report, "md")
    lines = md.splitlines()
    run_rows = [l for l in lines if l.startswith("| ") and l.split(" | ")[0][2:].isdigit()]
    assert len(run_rows) == 10
    # The live speedup row derives from full-precision means, unlike the
    # published percentages which round the averages to milliseconds first.
    speed_row = next(l for l in lines if l.startswith("| Speedup vs Proposed"))
    proposed = mean_seconds(ref.RUNS_1M["Proposed"])
    for name in ("CS", "LB", "CB", "NLN", "Skala", "KWC"):
        expected = f"{speedup_percent(proposed, mean_seconds(ref.RUNS_1M[name])):.2f}"
        assert expected in speed_row
    assert speed_row.rstrip().endswith("| - |")  # no speedup against itself


def test_unknown_format_rejected():
    cfg = BenchConfig(lines_per_run=5, repetitions=1, seed=1)
    with pytest.raises(ValueError):
        render_report(run_bench(cfg), "yaml")


def test_markdown_columns_follow_fixed_order_for_any_request_order():
    cfg = BenchConfig(
        lines_per_run=20,
        repetitions=1,
        seed=1,
        algorithms=(AlgorithmId.PROPOSED, AlgorithmId.COHEN_SUTHERLAND, AlgorithmId.SKALA),
    )
    md = render_report(run_bench(cfg), "md")
    header = next(l for l in md.splitlines() if l.startswith("| Exec."))
    assert header == "| Exec. | CS | Skala | Proposed |"


def test_report_averages_match_timings():
    cfg = BenchConfig(lines_per_run=200, repetitions=3, seed=2)
    report = run_bench(cfg)
    for algo in cfg.algorithms:
        runs = [t.seconds for t in report.timings if t.algorithm is algo]
        assert report.averages[algo.value] == pytest.approx(mean_seconds(runs))
    assert set(report.speedups_vs_proposed) == {
        a.value for a in cfg.algorithms if a is not AlgorithmId.PROPOSED
    }
