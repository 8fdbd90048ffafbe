"""Deterministic clipping benchmark harness and report rendering.

The same seeded segment stream is replayed for every algorithm and every
repetition, so everything in a report except the wall-clock ``seconds``
is bit-identical across runs and platforms.  The stream is materialized
once, one chunk of at most ``CHUNK_SIZE`` segments at a time, and each
chunk is clipped by every repetition and every algorithm before the next
one is generated.  Timing covers the clip calls only: generation happens
before the timer starts and results are folded into a checksum after it
stops.  A warm-up pass over each chunk runs first and is neither timed
into the report nor folded.
"""

from __future__ import annotations

import json
import struct
import sys
import time
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Decimal
from hashlib import blake2b

from .clippers import KERNELS, AlgorithmId
from .geom import ClipWindow, require_window_in_space

__all__ = [
    "MASK64",
    "next_u64",
    "require_seed",
    "BenchConfig",
    "BenchInvariantError",
    "RunTiming",
    "BenchReport",
    "run_bench",
    "build_report",
    "mean_seconds",
    "speedup_percent",
    "render_report",
    "parse_report",
    "CHUNK_SIZE",
]

MASK64 = (1 << 64) - 1
_TWO64 = float(2**64)

# Buffers are capped so a ten-million-line run never holds more than one
# chunk of segments at a time; the timer accumulates across chunks.
CHUNK_SIZE = 1_000_000

# splitmix64: the state advances by _GAMMA, then _MIX1 and _MIX2 mix it.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def next_u64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, new state).

    Fixed published constants, so streams are bit-identical across
    languages and platforms for the same seed.  This is the scalar
    definition; ``_materialize`` computes the same draws a block at a
    time.
    """
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31), state


def require_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a splitmix64 state, 0 <= seed < 2^64."""
    if not (0 <= seed <= MASK64):
        raise ValueError("seed must fit in 64 bits")


# One block of the stream is one int of 128-bit lanes, one lane per
# draw.  A block holds _BLOCK segments, four draws each: larger blocks
# saved little time and held more memory.  Lane k (from 0) of _STEPS
# holds (k + 1) * _GAMMA mod 2^64, the offset of draw k from the
# block's starting state; _LOW64 masks every lane to its low 64 bits.
_BLOCK = 256
_LANE_BYTES = 16
_ONES = int.from_bytes((1).to_bytes(_LANE_BYTES, "little") * (4 * _BLOCK), "little")
_LOW64 = _ONES * MASK64
_STEPS = int.from_bytes(
    b"".join(((k * _GAMMA) & MASK64).to_bytes(_LANE_BYTES, "little")
             for k in range(1, 4 * _BLOCK + 1)),
    "little",
)
# A block's bytes in the host's order, read as 64-bit words, hold each
# lane's low word at the even indices on a little-endian host and at
# every other index from the end, lane 0 last, on a big-endian one.
_LOW_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def _materialize(state: int, space: ClipWindow, count: int):
    """Next ``count`` segments of the stream as (x1, y1, x2, y2) tuples,
    and the state to continue from.

    Each segment draws four splitmix64 values in order (x1, y1, x2, y2),
    each mapped as coordinate = lo + (u / 2^64) * (hi - lo) in double
    arithmetic.  Calling again with the returned state continues the
    same stream, which is how the harness chunks it.

    The state advances by a fixed gamma, so draw k (from 1) has state
    seed + k * gamma mod 2^64 and no draw waits on the one before.  A
    block of draws is therefore mixed at once: one int holds one
    128-bit lane per draw, wide enough for each 64 x 64-bit product,
    and masks keep each lane's low 64 bits, dropping the high half of
    each product and what a shift carried in from the next lane.  The
    draws equal ``next_u64``'s, the scalar reference.
    """
    xlo = space.xmin
    ylo = space.ymin
    xspan = space.xmax - space.xmin
    yspan = space.ymax - space.ymin
    ones, steps, low64 = _ONES, _STEPS, _LOW64
    buf = []
    extend = buf.extend
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        if n < _BLOCK:  # the last block: keep its 4n low lanes
            keep = (1 << (4 * n * _LANE_BYTES * 8)) - 1
            ones, steps, low64 = ones & keep, steps & keep, low64 & keep
        z = (state * ones + steps) & low64
        z = ((z ^ (z >> 30)) & low64) * _MIX1 & low64
        z = ((z ^ (z >> 27)) & low64) * _MIX2 & low64
        # The last shift's carry lands in each lane's high word, which
        # _LOW_WORDS drops, so it needs no mask.
        z ^= z >> 31
        words = memoryview(z.to_bytes(4 * n * _LANE_BYTES, sys.byteorder)).cast("Q")
        # Each tuple is built right after its four coordinates, so they
        # lie together in memory for the clip passes; coordinates built
        # one list per coordinate slowed every kernel by several percent.
        draws = iter(words[_LOW_WORDS])
        extend([
            (xlo + (u1 / _TWO64) * xspan, ylo + (u2 / _TWO64) * yspan,
             xlo + (u3 / _TWO64) * xspan, ylo + (u4 / _TWO64) * yspan)
            for u1, u2, u3, u4 in zip(draws, draws, draws, draws)
        ])
        state = (state + 4 * n * _GAMMA) & MASK64
    return buf, state


_DEFAULT_SPACE = ClipWindow(-960.0, -720.0, 960.0, 720.0)
_DEFAULT_WINDOW = ClipWindow(-100.0, -75.0, 100.0, 75.0)


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark protocol parameters.

    Defaults reproduce the reference protocol: segments drawn uniformly
    over a 1920x1440 space centered on a 200x150 window, one million
    lines per run, ten recorded repetitions.
    """

    space: ClipWindow = _DEFAULT_SPACE
    window: ClipWindow = _DEFAULT_WINDOW
    lines_per_run: int = 1_000_000
    repetitions: int = 10
    seed: int = 1
    algorithms: tuple[AlgorithmId, ...] = tuple(AlgorithmId)

    def __post_init__(self) -> None:
        if self.lines_per_run < 1:
            raise ValueError("lines_per_run must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        require_seed(self.seed)
        require_window_in_space(self.window, self.space)
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithms in config")


@dataclass(frozen=True)
class RunTiming:
    """One timed pass of one algorithm over the full segment stream."""

    algorithm: AlgorithmId
    run_index: int
    seconds: float
    accepted_count: int
    checksum: int


@dataclass(frozen=True)
class BenchReport:
    config: BenchConfig
    timings: tuple[RunTiming, ...]
    averages: dict[str, float]
    speedups_vs_proposed: dict[str, float]


_PACK_INDEX = struct.Struct("<Q")
_PACK_COORDS = struct.Struct("<4d")


class _ResultFold:
    """Order-sensitive 64-bit digest over a stream of clip results.

    Accepts contribute their stream index and endpoint bit patterns;
    rejects contribute through the indices and the final length, so any
    accept/reject flip changes the digest.
    """

    __slots__ = ("_h", "_count", "accepted")

    def __init__(self) -> None:
        self._h = blake2b(digest_size=8)
        self._count = 0
        self.accepted = 0

    def update(self, results) -> None:
        h = self._h
        pack_index = _PACK_INDEX.pack
        pack_coords = _PACK_COORDS.pack
        base = self._count
        accepted = 0
        for i, r in enumerate(results):
            if r is not None:
                accepted += 1
                h.update(pack_index(base + i))
                h.update(pack_coords(*r))
        self._count = base + len(results)
        self.accepted += accepted

    def digest(self) -> int:
        h = self._h.copy()
        h.update(_PACK_INDEX.pack(self._count))
        return int.from_bytes(h.digest(), "little")


def mean_seconds(values) -> float:
    """Arithmetic mean at full precision; rounding is display-only."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence")
    return sum(values) / len(values)


def speedup_percent(proposed_avg: float, other_avg: float) -> float:
    """|other - proposed| / proposed * 100, the reference algorithm's
    average always in the denominator."""
    if proposed_avg <= 0:
        raise ValueError("reference average must be positive")
    return abs(other_avg - proposed_avg) / proposed_avg * 100.0


def build_report(config: BenchConfig, timings) -> BenchReport:
    timings = tuple(timings)
    expected = len(config.algorithms) * config.repetitions
    if len(timings) != expected:
        raise ValueError(f"expected {expected} timings, got {len(timings)}")
    averages = {
        algo.value: mean_seconds(t.seconds for t in timings if t.algorithm is algo)
        for algo in config.algorithms
    }
    speedups: dict[str, float] = {}
    if AlgorithmId.PROPOSED in config.algorithms:
        ref = averages[AlgorithmId.PROPOSED.value]
        speedups = {
            algo.value: speedup_percent(ref, averages[algo.value])
            for algo in config.algorithms
            if algo is not AlgorithmId.PROPOSED
        }
    return BenchReport(config, timings, averages, speedups)


class BenchInvariantError(RuntimeError):
    """A bench run broke an invariant its report promises."""


def run_bench(config: BenchConfig) -> BenchReport:
    """Run the timed protocol and check the invariants the report promises.

    Each chunk of the stream is materialized once, then clipped by every
    repetition (0 is the warm-up, neither timed nor folded) and, within a
    repetition, by every algorithm.  Each (algorithm, repetition) timer
    and checksum accumulates across chunks.  Raises BenchInvariantError
    when the algorithms disagree on the accepted count or when one
    algorithm's accepted count or checksum differs between repetitions.
    """
    wx0, wy0, wx1, wy1 = config.window.bounds()
    kernels = [(algo, KERNELS[algo]) for algo in config.algorithms]
    runs = [(algo, rep) for rep in range(1, config.repetitions + 1) for algo in config.algorithms]
    elapsed = dict.fromkeys(runs, 0.0)
    folds = {run: _ResultFold() for run in runs}

    perf = time.perf_counter
    state = config.seed
    remaining = config.lines_per_run
    while remaining:
        count = min(remaining, CHUNK_SIZE)
        buf, state = _materialize(state, config.space, count)
        remaining -= count
        for rep in range(config.repetitions + 1):
            for algo, kernel in kernels:
                t0 = perf()
                results = [
                    kernel(ax, ay, bx, by, wx0, wy0, wx1, wy1)
                    for ax, ay, bx, by in buf
                ]
                dt = perf() - t0
                if rep:  # rep 0 is the warm-up
                    elapsed[algo, rep] += dt
                    folds[algo, rep].update(results)

    timings = []
    for algo, rep in runs:
        fold = folds[algo, rep]
        timings.append(RunTiming(algo, rep, elapsed[algo, rep], fold.accepted, fold.digest()))
    first_rep = {}
    for t in timings:
        ref = first_rep.setdefault(t.algorithm, t)
        if t.accepted_count != timings[0].accepted_count:
            raise BenchInvariantError(
                f"{t.algorithm.value} rep {t.run_index} accepted {t.accepted_count} segments, "
                f"{timings[0].algorithm.value} accepted {timings[0].accepted_count}"
            )
        if t.checksum != ref.checksum:
            raise BenchInvariantError(
                f"{t.algorithm.value} rep {t.run_index} checksum {t.checksum:016x} "
                f"differs from rep {ref.run_index} checksum {ref.checksum:016x}"
            )
    return build_report(config, timings)


# ---------------------------------------------------------------------------
# Rendering


def _fmt_seconds(value: float) -> str:
    # Run tables carry millisecond precision, so their means have at most
    # four meaningful decimals; quantizing there first drops binary
    # summation noise before the half-up display rounding.
    q = Decimal(repr(value)).quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN)
    return str(q.quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def render_report(report: BenchReport, fmt: str) -> str:
    """Serialize a report; ``fmt`` is ``csv``, ``md`` (markdown) or ``json``."""
    if fmt == "csv":
        return _render_csv(report)
    if fmt == "md":
        return _render_markdown(report)
    if fmt == "json":
        return _render_json(report)
    raise ValueError(f"unknown report format: {fmt!r}")


def _render_csv(report: BenchReport) -> str:
    lines = ["algorithm,run,seconds,accepted,checksum"]
    for t in report.timings:
        lines.append(
            f"{t.algorithm.value},{t.run_index},{t.seconds!r},"
            f"{t.accepted_count},{t.checksum:016x}"
        )
    return "\n".join(lines) + "\n"


def _render_markdown(report: BenchReport) -> str:
    cfg = report.config
    # The markdown layout always uses the fixed column order, whatever
    # order the algorithms were requested in.
    algos = [a for a in AlgorithmId if a in cfg.algorithms]
    names = [a.value for a in algos]
    out = [
        "# Line clipping benchmark",
        "",
        "- timing covers the clip calls only; segment generation and any drawing are excluded",
        "- every repetition replays the identical seeded segment stream; all algorithms clip the same buffer",
        f"- lines per run: {cfg.lines_per_run}, repetitions: {cfg.repetitions}, seed: {cfg.seed}",
        f"- space: {cfg.space.bounds()}, window: {cfg.window.bounds()}",
        "",
        "| Exec. | " + " | ".join(names) + " |",
        "|" + "---|" * (len(names) + 1),
    ]
    by_algo_run = {(t.algorithm, t.run_index): t for t in report.timings}
    for run in range(1, cfg.repetitions + 1):
        cells = [_fmt_seconds(by_algo_run[(a, run)].seconds) for a in algos]
        out.append(f"| {run} | " + " | ".join(cells) + " |")
    avg_cells = [_fmt_seconds(report.averages[n]) for n in names]
    out.append("| Avg | " + " | ".join(avg_cells) + " |")
    if report.speedups_vs_proposed:
        speed_cells = [
            f"{report.speedups_vs_proposed[n]:.2f}" if n in report.speedups_vs_proposed else "-"
            for n in names
        ]
        out.append("| Speedup vs Proposed (%) | " + " | ".join(speed_cells) + " |")
    out.append("")
    out.append("| Algorithm | Accepted | Checksum |")
    out.append("|---|---|---|")
    for a in algos:
        t = by_algo_run[(a, 1)]
        out.append(f"| {a.value} | {t.accepted_count} | {t.checksum:016x} |")
    out.append("")
    return "\n".join(out)


def _render_json(report: BenchReport) -> str:
    cfg = report.config
    doc = {
        "config": {
            "space": list(cfg.space.bounds()),
            "window": list(cfg.window.bounds()),
            "lines_per_run": cfg.lines_per_run,
            "repetitions": cfg.repetitions,
            "seed": cfg.seed,
            "algorithms": [a.value for a in cfg.algorithms],
        },
        "timings": [
            {
                "algorithm": t.algorithm.value,
                "run": t.run_index,
                "seconds": t.seconds,
                "accepted": t.accepted_count,
                "checksum": t.checksum,
            }
            for t in report.timings
        ],
        "averages": report.averages,
        "speedups_vs_proposed": report.speedups_vs_proposed,
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_report(text: str) -> BenchReport:
    """Inverse of the json rendering; parse(render(r)) == r."""
    doc = json.loads(text)
    c = doc["config"]
    config = BenchConfig(
        space=ClipWindow(*c["space"]),
        window=ClipWindow(*c["window"]),
        lines_per_run=c["lines_per_run"],
        repetitions=c["repetitions"],
        seed=c["seed"],
        algorithms=tuple(AlgorithmId(v) for v in c["algorithms"]),
    )
    timings = tuple(
        RunTiming(
            AlgorithmId(t["algorithm"]),
            t["run"],
            t["seconds"],
            t["accepted"],
            t["checksum"],
        )
        for t in doc["timings"]
    )
    return BenchReport(config, timings, doc["averages"], doc["speedups_vs_proposed"])
