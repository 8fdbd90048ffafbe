import hashlib
import json
import math
import pickle
import struct
import sys

import pytest
from hypothesis import given, strategies as st

from clipbench.bench import (
    BenchConfig,
    BenchInvariantError,
    BenchReport,
    RunTiming,
    mean_seconds,
    parse_report,
    render_report,
    run_bench,
    speedup_percent,
    _BLOCK,
    _ResultFold,
    _materialize,
)
from clipbench.clippers import KERNELS, AlgorithmId
from clipbench.geom import ClipWindow
from clipbench.oracle import ExactClipOutcome
from clipbench.verify import run_verification

import reference_timings as ref

SPACE = ClipWindow(-960.0, -720.0, 960.0, 720.0)
WINDOW = ClipWindow(-100.0, -75.0, 100.0, 75.0)


# ---------------------------------------------------------------------------
# Generator

def test_splitmix64_reference_sequence():
    # The first two published splitmix64 outputs for seed 0, mapped as
    # lo + (u / 2^64) * (hi - lo), are the stream's first x1 and y1.
    buf, _ = _materialize(0, SPACE, 1)
    x1, y1 = buf[0][:2]
    assert x1.hex() == (-960.0 + (0xE220A8397B1DCDAF / 2**64) * 1920.0).hex()
    assert y1.hex() == (-720.0 + (0x6E789E6AA1B965F4 / 2**64) * 1440.0).hex()


def test_splitmix64_same_seed_same_outputs():
    a = _materialize(12345, SPACE, _BLOCK + 1)
    b = _materialize(12345, SPACE, _BLOCK + 1)
    assert a == b


@given(st.integers(min_value=0, max_value=(1 << 64) - 1), st.integers(0, _BLOCK + 1))
def test_splitmix64_outputs_fit_64_bits(seed, count):
    _, state = _materialize(seed, SPACE, count)
    assert state == (seed + 4 * count * 0x9E3779B97F4A7C15) % 2**64
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


def test_stream_matches_independent_mapping():
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


def test_stream_coordinates_in_range():
    buf, _ = _materialize(99, SPACE, 500)
    for x1, y1, x2, y2 in buf:
        for x, y in ((x1, y1), (x2, y2)):
            assert SPACE.xmin <= x < SPACE.xmax
            assert SPACE.ymin <= y < SPACE.ymax


def test_continued_buffer_matches_the_whole_stream():
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


@pytest.mark.parametrize("path", ["constructor", "_make", "_replace"])
@pytest.mark.parametrize("name, bad", [
    ("window", ClipWindow(-1000.0, -75.0, 100.0, 75.0)),  # outside the space
    ("lines_per_run", 0),
    ("repetitions", 0),
    ("seed", 2**64),
    ("algorithms", ()),
    ("algorithms", (AlgorithmId.KWC, AlgorithmId.KWC)),
    ("lines_per_run", 5.5),
    ("repetitions", 2.0),
    ("seed", 1.0),
    ("repetitions", True),
    ("algorithms", ("cs",)),
])
def test_config_rejects_bad_fields_on_every_construction_path(name, bad, path):
    good = BenchConfig()
    values = [bad if field == name else value for field, value in zip(good._fields, good)]
    build = {
        "constructor": lambda: BenchConfig(**{name: bad}),
        "_make": lambda: BenchConfig._make(values),
        "_replace": lambda: good._replace(**{name: bad}),
    }[path]
    with pytest.raises(ValueError):
        build()


def test_count_checks_name_the_field_alone():
    # One helper checks every count; a single bad field gives its own
    # message, word for word.
    for build, message in (
        (lambda: BenchConfig(lines_per_run=0), "lines_per_run must be >= 1"),
        (lambda: BenchConfig(lines_per_run=5.5), "lines_per_run must be an int, got 5.5"),
        (lambda: BenchConfig(repetitions=0), "repetitions must be >= 1"),
        (lambda: BenchConfig(repetitions=True), "repetitions must be an int, got True"),
        (lambda: run_verification(-1, 1, SPACE, WINDOW), "cases must be >= 0"),
        (lambda: run_verification(2.0, 1, SPACE, WINDOW), "cases must be an int, got 2.0"),
        (lambda: RunTiming(AlgorithmId.KWC, 0, 0.0, 0, 0), "run_index must be >= 1"),
        (lambda: RunTiming(AlgorithmId.KWC, 1, 0.0, -1, 0), "accepted_count must be >= 0"),
        (lambda: RunTiming(AlgorithmId.KWC, 1, 0.0, 1.0, 0),
         "accepted_count must be an int, got 1.0"),
    ):
        with pytest.raises(ValueError) as raised:
            build()
        assert str(raised.value) == message


def test_config_and_report_pickle_and_are_immutable():
    cfg = BenchConfig(lines_per_run=20, repetitions=1, seed=2, algorithms=(AlgorithmId.LIANG_BARSKY,))
    report = run_bench(cfg)
    for value in (cfg, report, report.timings[0]):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
        with pytest.raises(AttributeError):
            setattr(value, value._fields[0], None)
    assert BenchConfig() == (SPACE, WINDOW, 1_000_000, 10, 1, tuple(AlgorithmId))


def test_config_stores_windows_and_algorithm_ids_however_given():
    cfg = BenchConfig(space=list(SPACE), window=tuple(WINDOW),
                      algorithms=["CS", AlgorithmId.PROPOSED])
    assert type(cfg.space) is ClipWindow and type(cfg.window) is ClipWindow
    assert cfg.algorithms == (AlgorithmId.COHEN_SUTHERLAND, AlgorithmId.PROPOSED)
    assert cfg == BenchConfig(algorithms=(AlgorithmId.COHEN_SUTHERLAND, AlgorithmId.PROPOSED))
    assert cfg._replace(algorithms=["KWC"]).algorithms == (AlgorithmId.KWC,)


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
        o = ExactClipOutcome.of(seg, WINDOW)
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


# Every algorithm's (accepted, checksum) for seed 1, 100k lines, the
# default space and window.  LB and CB return bit-identical results, and
# so do NLN, Skala and KWC.
STREAM_PINS_100K = {
    AlgorithmId.COHEN_SUTHERLAND: (16566, 0x5D9AFC063FD5AE41),
    AlgorithmId.LIANG_BARSKY: (16566, 0x48B1AEB8786D8761),
    AlgorithmId.CYRUS_BECK: (16566, 0x48B1AEB8786D8761),
    AlgorithmId.NICHOLL_LEE_NICHOLL: (16566, 0x1EF2E80A7DBE5566),
    AlgorithmId.SKALA: (16566, 0x1EF2E80A7DBE5566),
    AlgorithmId.KWC: (16566, 0x1EF2E80A7DBE5566),
    AlgorithmId.PROPOSED: (16566, 0xDE24CDFFE3F9B73B),
}


def test_stream_checksums_are_pinned():
    report = run_bench(BenchConfig(lines_per_run=100_000, repetitions=1, seed=1))
    assert {t.algorithm: (t.accepted_count, t.checksum) for t in report.timings} == STREAM_PINS_100K
    # The record format README states, rebuilt without the harness's fold:
    # per accept its stream index as a u64 and its four coordinates as
    # doubles, then the result count, all little-endian, into an 8-byte
    # BLAKE2b read as a little-endian int.
    buf, _ = _materialize(1, SPACE, 100_000)
    for algo, pin in STREAM_PINS_100K.items():
        kernel = KERNELS[algo]
        h = hashlib.blake2b(digest_size=8)
        accepted = 0
        for i, (ax, ay, bx, by) in enumerate(buf):
            r = kernel(ax, ay, bx, by, *WINDOW)
            if r is not None:
                accepted += 1
                h.update(struct.pack("<Q", i) + struct.pack("<4d", *r))
        h.update(struct.pack("<Q", len(buf)))
        assert (accepted, int.from_bytes(h.digest(), "little")) == pin, algo


def _fold(*parts):
    fold = _ResultFold()
    for part in parts:
        fold.update(part)
    return fold.accepted, fold.digest()


def test_result_fold_does_not_depend_on_how_the_stream_is_split():
    results = [
        (i * 1.5, -i / 3, 2.0 ** -i, i - 19.75) if i in (0, 7, 8, 22, 39) else None
        for i in range(40)
    ]
    whole = _fold(results)
    assert whole[0] == 5
    for k in range(len(results) + 1):
        assert _fold(results[:k], results[k:]) == whole, k
    assert _fold([], results, []) == whole
    # Rejects count through the result count alone.
    padded = _fold(results, [None] * 3)
    assert padded[0] == whole[0] and padded[1] != whole[1]
    assert _fold([None] * 3)[1] != _fold([])[1]
    # The same accepts at other stream positions give another digest.
    assert _fold([None], results[:-1])[1] != _fold(results[:-1], [None])[1]


def _with_proposed_kernel(monkeypatch, kernel):
    import clipbench.bench as bench_mod

    monkeypatch.setattr(bench_mod, "KERNELS", {**KERNELS, AlgorithmId.PROPOSED: kernel})


def test_disagreeing_accepted_counts_raise(monkeypatch):
    _with_proposed_kernel(monkeypatch, lambda *args: None)
    cfg = BenchConfig(lines_per_run=500, repetitions=2, seed=4)
    with pytest.raises(RuntimeError, match="Proposed rep 1 accepted 0"):
        run_bench(cfg)


def test_checksum_changing_between_reps_raises(monkeypatch):
    # Clips like Proposed over the first repetition, then nudges every
    # accepted endpoint: accepted counts still agree, but the second
    # repetition's checksum differs from the first.
    real = KERNELS[AlgorithmId.PROPOSED]
    for lines in (500, 1500):
        drift_after = lines
        calls = [0]

        def drifting(*args):
            calls[0] += 1
            r = real(*args)
            if r is None or calls[0] <= drift_after:
                return r
            return tuple(v + 1e-6 for v in r)

        _with_proposed_kernel(monkeypatch, drifting)
        cfg = BenchConfig(lines_per_run=lines, repetitions=2, seed=4)
        with pytest.raises(RuntimeError, match="Proposed rep 2 checksum"):
            run_bench(cfg)


def test_every_pass_clips_the_whole_chunk_once(monkeypatch):
    # No pass is left out of the report: per chunk, Proposed clips the
    # whole chunk once per repetition, in stream order, and nothing else.
    import clipbench.bench as bench_mod

    real = KERNELS[AlgorithmId.PROPOSED]
    lines, reps, chunk = 2500, 2, 1500
    monkeypatch.setattr(bench_mod, "CHUNK_SIZE", chunk)
    stream, _ = _materialize(6, SPACE, lines)
    seen = []

    def recording(*args):
        seen.append(args[:4])
        return real(*args)

    _with_proposed_kernel(monkeypatch, recording)
    report = run_bench(BenchConfig(lines_per_run=lines, repetitions=reps, seed=6,
                                   algorithms=(AlgorithmId.COHEN_SUTHERLAND, AlgorithmId.PROPOSED)))
    assert len(seen) == reps * lines
    assert seen == stream[:chunk] * reps + stream[chunk:] * reps
    assert report.timings[0].accepted_count > 0


def test_no_pass_times_the_release_of_earlier_results(monkeypatch):
    # Every accepted tuple logs its release and every timer read logs a
    # tick; a pass is timed between two consecutive ticks, so no release
    # may fall after an odd number of ticks.
    import clipbench.bench as bench_mod

    events = []
    real = KERNELS[AlgorithmId.PROPOSED]
    perf = bench_mod.time.perf_counter

    class Tracked(tuple):
        __slots__ = ()

        def __del__(self):
            events.append("free")

    def tracked(*args):
        r = real(*args)
        return r if r is None else Tracked(r)

    def tick():
        events.append("tick")
        return perf()

    _with_proposed_kernel(monkeypatch, tracked)
    monkeypatch.setattr(bench_mod.time, "perf_counter", tick)
    cfg = BenchConfig(lines_per_run=1200, repetitions=3, seed=3,
                      algorithms=(AlgorithmId.PROPOSED, AlgorithmId.KWC))
    report = run_bench(cfg)
    monkeypatch.undo()
    assert events.count("free") == cfg.repetitions * report.timings[0].accepted_count > 0
    ticks = 0
    for event in events:
        if event == "tick":
            ticks += 1
        else:
            assert ticks % 2 == 0, f"a release fell inside pass {ticks // 2 + 1}"
    assert ticks == 2 * len(cfg.algorithms) * cfg.repetitions


# ---------------------------------------------------------------------------
# Rendering

def _injected_report(runs, lines):
    algos = tuple(AlgorithmId)
    cfg = BenchConfig(lines_per_run=lines, repetitions=10, seed=1, algorithms=algos)
    timings = []
    for algo in algos:
        for i, sec in enumerate(runs[algo.value], start=1):
            timings.append(RunTiming(algo, i, sec, 0, 0))
    return BenchReport(cfg, timings)


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


def test_report_is_config_and_timings_and_round_trips_a_list_config():
    cfg = BenchConfig(lines_per_run=25, repetitions=2, seed=8, algorithms=[AlgorithmId.CYRUS_BECK])
    report = run_bench(cfg)
    back = parse_report(render_report(report, "json"))
    assert BenchReport._fields == ("config", "timings")
    assert back == report and hash(back) == hash(report)


@pytest.fixture(scope="module")
def report_json():
    cfg = BenchConfig(lines_per_run=25, repetitions=2, seed=8,
                      algorithms=(AlgorithmId.COHEN_SUTHERLAND, AlgorithmId.PROPOSED))
    return render_report(run_bench(cfg), "json")


def _edited(text, edit):
    doc = json.loads(text)
    rows = {(t["algorithm"], t["run"]): t for t in doc["timings"]}
    edit(doc, rows)
    return json.dumps(doc)


def _set(row, key, value):
    row[key] = value


def _set_every(doc, key, value):
    # On every row, so the report's agreement checks still hold.
    for row in doc["timings"]:
        row[key] = value


@pytest.mark.parametrize("error, edit", [
    (ValueError, lambda doc, rows: rows["CS", 2].update(rows["CS", 1])),
    (ValueError, lambda doc, rows: doc["timings"].append(dict(rows["CS", 1]))),
    (ValueError, lambda doc, rows: doc["timings"].remove(rows["CS", 2])),
    (ValueError, lambda doc, rows: _set(rows["CS", 2], "algorithm", "LB")),
    (ValueError, lambda doc, rows: _set(rows["Proposed", 2], "run", 7)),
    (ValueError, lambda doc, rows: _set(doc["config"], "algorithms", ["cs", "Proposed"])),
    (BenchInvariantError, lambda doc, rows: _set(rows["Proposed", 1], "accepted", 0)),
    (BenchInvariantError, lambda doc, rows: _set(rows["CS", 2], "checksum", 1)),
    (KeyError, lambda doc, rows: doc["config"].pop("seed")),
    (ValueError, lambda doc, rows: _set(rows["CS", 2], "seconds", math.inf)),
    (ValueError, lambda doc, rows: _set(rows["CS", 2], "seconds", -1.0)),
    (ValueError, lambda doc, rows: _set(rows["CS", 1], "run", 1.0)),
    (ValueError, lambda doc, rows: _set(rows["CS", 1], "run", True)),
    (ValueError, lambda doc, rows: _set_every(doc, "accepted", -1)),
    (ValueError, lambda doc, rows: _set_every(doc, "accepted", 2.0)),
    (ValueError, lambda doc, rows: _set_every(doc, "checksum", -1)),
    (ValueError, lambda doc, rows: _set_every(doc, "checksum", 2**64)),
], ids=["duplicate-run", "extra-run", "missing-run", "foreign-algorithm", "run-7-of-2",
        "lowercase-algorithm", "accepted-count", "checksum", "missing-config-key",
        "infinite-seconds", "negative-seconds", "float-run", "bool-run", "negative-accepted",
        "float-accepted", "negative-checksum", "checksum-past-64-bits"])
def test_parse_report_rejects_an_edited_report(report_json, error, edit):
    with pytest.raises(error):
        parse_report(_edited(report_json, edit))


def test_parse_report_ignores_extra_keys_and_derived_values(report_json):
    def edit(doc, rows):
        doc["config"]["note"] = "extra"
        doc["averages"] = doc["speedups_vs_proposed"] = {}

    report = parse_report(_edited(report_json, edit))
    assert report == parse_report(report_json)
    assert set(report.averages) == {"CS", "Proposed"} and set(report.speedups_vs_proposed) == {"CS"}


def test_report_checks_hold_on_every_construction_path(report_json):
    report = parse_report(report_json)
    short = report.timings[:-1]
    drifted = report.timings[:-1] + (report.timings[-1]._replace(checksum=1),)
    for timings, error in ((short, ValueError), (drifted, BenchInvariantError)):
        for build in (BenchReport, lambda c, t: BenchReport._make((c, t)),
                      lambda c, t: report._replace(timings=t)):
            with pytest.raises(error):
                build(report.config, timings)


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


@pytest.mark.parametrize("seconds, cell", [
    (1e24, "1" + "0" * 24 + ".000"),
    (1e30, "1" + "0" * 30 + ".000"),
    (sys.float_info.max, "17976931348623157" + "0" * 292 + ".000"),
], ids=["1e24", "1e30", "float-max"])
def test_markdown_renders_any_finite_timing(seconds, cell):
    # RunTiming takes any finite seconds >= 0, so the table must show
    # them all, beyond the 28 digits of the default decimal context.
    cfg = BenchConfig(lines_per_run=20, repetitions=1, seed=1,
                      algorithms=(AlgorithmId.PROPOSED,))
    report = run_bench(cfg)
    report = report._replace(timings=[report.timings[0]._replace(seconds=seconds)])
    md = render_report(report, "md").splitlines()
    assert f"| 1 | {cell} |" in md and f"| Avg | {cell} |" in md


def test_report_averages_match_timings():
    cfg = BenchConfig(lines_per_run=200, repetitions=3, seed=2)
    report = run_bench(cfg)
    for algo in cfg.algorithms:
        runs = [t.seconds for t in report.timings if t.algorithm is algo]
        assert report.averages[algo.value] == pytest.approx(mean_seconds(runs))
    assert set(report.speedups_vs_proposed) == {
        a.value for a in cfg.algorithms if a is not AlgorithmId.PROPOSED
    }
