"""Deterministic clipping benchmark harness and report rendering.

The same seeded segment stream is replayed for every algorithm and every
repetition, so everything in a report except the wall-clock ``seconds``
is bit-identical across runs and platforms.  The stream is materialized
once, one chunk of at most ``CHUNK_SIZE`` segments at a time, by
``_stream``, the walker ``verify`` shares, and each chunk is clipped by
every repetition and every algorithm before the next one is generated.
Timing covers the clip calls only: generation happens before the timer
starts, and results are folded into a checksum and released after it
stops.  Every pass is timed and folded, the first too: measured in
fresh processes, a kernel's first pass runs within the host's noise of
its later ones (README, "Benchmark semantics"), so an untimed warm-up
pass would only cost time.  The first pass does take the page faults of
the heap's growth, about 1% of its time at 200k lines.
"""

from __future__ import annotations

import json
import struct
import sys
import time
from collections import namedtuple
from itertools import compress
from math import copysign, fsum, isfinite, isinf, ldexp

# hashlib binds blake2b to this same builtin object, but importing
# hashlib also loads OpenSSL, which nothing here uses.
from _blake2 import blake2b

from .clippers import KERNELS, AlgorithmId
from .geom import ClipWindow, _checked_make, require_window_in_space

__all__ = [
    "MASK64",
    "require_seed",
    "BenchConfig",
    "BenchInvariantError",
    "RunTiming",
    "BenchReport",
    "run_bench",
    "mean_seconds",
    "speedup_percent",
    "render_report",
    "REPORT_FORMATS",
    "parse_report",
    "CHUNK_SIZE",
]

MASK64 = (1 << 64) - 1
_TWO64 = float(2**64)

# Buffers are capped so a ten-million-line run never holds more than one
# chunk of segments at a time; the timer accumulates across chunks.
CHUNK_SIZE = 1_000_000

# splitmix64's published constants, so a seed gives the same stream on
# every platform: the state advances by _GAMMA, then _MIX1 and _MIX2 mix it.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def require_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is a splitmix64 state: an int (not
    a bool) with 0 <= seed < 2^64."""
    if type(seed) is not int:
        raise ValueError(f"seed must be an int, got {seed!r}")
    if not (0 <= seed <= MASK64):
        raise ValueError("seed must fit in 64 bits")


def _require_count(name: str, value: int, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an int (not a bool) >= ``minimum``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


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
    each product and what a shift carried in from the next lane.  Every
    block is mixed at full width, and a partial last block keeps only
    the draws it needs.
    """
    xlo = space.xmin
    ylo = space.ymin
    xspan = space.xmax - space.xmin
    yspan = space.ymax - space.ymin
    buf = []
    extend = buf.extend
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        z = (state * _ONES + _STEPS) & _LOW64
        z = ((z ^ (z >> 30)) & _LOW64) * _MIX1 & _LOW64
        z = ((z ^ (z >> 27)) & _LOW64) * _MIX2 & _LOW64
        # The last shift's carry lands in each lane's high word, which
        # _LOW_WORDS drops, so it needs no mask.
        z ^= z >> 31
        words = memoryview(z.to_bytes(4 * _BLOCK * _LANE_BYTES, sys.byteorder)).cast("Q")
        # Each tuple is built right after its four coordinates, so they
        # lie together in memory for the clip passes; coordinates built
        # one list per coordinate slowed every kernel by several percent.
        draws = iter(words[_LOW_WORDS][:4 * n])
        extend([
            (xlo + (u1 / _TWO64) * xspan, ylo + (u2 / _TWO64) * yspan,
             xlo + (u3 / _TWO64) * xspan, ylo + (u4 / _TWO64) * yspan)
            for u1, u2, u3, u4 in zip(draws, draws, draws, draws)
        ])
        state = (state + 4 * n * _GAMMA) & MASK64
    return buf, state


def _stream(materialize, seed: int, space: ClipWindow, count: int, size: int):
    """The first ``count`` segments of the stream from ``seed``, in lists of
    at most ``size``, each made by ``materialize`` from the state the last
    call returned.  A ``size`` that is a multiple of ``_BLOCK`` does the
    lane work of one whole-stream call; others mix a partial block per list."""
    state = seed
    for start in range(0, count, size):
        chunk, state = materialize(state, space, min(size, count - start))
        yield chunk


_DEFAULT_SPACE = ClipWindow(-960.0, -720.0, 960.0, 720.0)
_DEFAULT_WINDOW = ClipWindow(-100.0, -75.0, 100.0, 75.0)


class BenchConfig(namedtuple(
    "BenchConfig", "space window lines_per_run repetitions seed algorithms",
    defaults=(_DEFAULT_SPACE, _DEFAULT_WINDOW, 1_000_000, 10, 1, tuple(AlgorithmId)))):
    """Benchmark protocol parameters.

    Defaults reproduce the reference protocol: segments drawn uniformly
    over a 1920x1440 space centered on a 200x150 window, one million
    lines per run, ten recorded repetitions.  The space and window are
    stored as ``ClipWindow``s, the algorithms as ``AlgorithmId``s.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> "BenchConfig":
        space, window, lines, reps, seed, algorithms = super().__new__(cls, *args, **kwargs)
        self = super().__new__(cls, ClipWindow(*space), ClipWindow(*window), lines, reps, seed,
                               tuple(AlgorithmId(a) for a in algorithms))
        _require_count("lines_per_run", lines, 1)
        _require_count("repetitions", reps, 1)
        require_seed(self.seed)
        require_window_in_space(self.window, self.space)
        if not self.algorithms:
            raise ValueError("at least one algorithm is required")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("duplicate algorithms in config")
        return self

    _make = classmethod(_checked_make)


class RunTiming(namedtuple("RunTiming", "algorithm run_index seconds accepted_count checksum")):
    """One timed pass of one algorithm over the full segment stream,
    checked however it is built: ``algorithm`` is stored as an
    ``AlgorithmId``, converting a report spelling as ``BenchConfig`` does.
    ValueError unless it names one, ``run_index`` >= 1 and
    ``accepted_count`` >= 0 are ints (not bools), ``seconds`` is an int
    or float from +0 to the largest double, since a timer that starts
    at 0.0 and adds elapsed times never reaches -0.0, and ``checksum``
    an int in [0, 2^64)."""

    __slots__ = ()

    def __new__(cls, algorithm, run_index, seconds, accepted_count, checksum) -> "RunTiming":
        algorithm = AlgorithmId(algorithm)
        _require_count("run_index", run_index, 1)
        _require_count("accepted_count", accepted_count, 0)
        if (type(seconds) not in (int, float) or not 0 <= seconds <= sys.float_info.max
                or copysign(1.0, seconds) < 0):
            raise ValueError(f"seconds must be an int or float in [+0, float max], got {seconds!r}")
        if type(checksum) is not int or not 0 <= checksum <= MASK64:
            raise ValueError(f"checksum must be an int in [0, 2**64), got {checksum!r}")
        return super().__new__(cls, algorithm, run_index, seconds, accepted_count, checksum)

    _make = classmethod(_checked_make)


class BenchInvariantError(RuntimeError):
    """A bench run broke an invariant its report promises."""


class BenchReport(namedtuple("BenchReport", "config timings")):
    """One bench run's timings under its config.  However it is built, a
    report holds one timing per (algorithm, repetition) of the config, in
    any order, or raises ValueError; every timing accepts the same count and
    each algorithm keeps one checksum, or it raises BenchInvariantError."""

    __slots__ = ()

    def __new__(cls, config: BenchConfig, timings) -> "BenchReport":
        self = super().__new__(cls, config, tuple(timings))
        timings = self.timings
        runs = {(algo, rep) for algo in config.algorithms for rep in range(1, config.repetitions + 1)}
        if len(timings) != len(runs) or {(t.algorithm, t.run_index) for t in timings} != runs:
            raise ValueError(f"expected one timing per algorithm and repetition, {len(runs)} in all")
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
        return self

    _make = classmethod(_checked_make)

    @property
    def averages(self) -> dict[str, float]:
        """Each algorithm's mean seconds, keyed by its report spelling."""
        return {
            algo.value: mean_seconds(t.seconds for t in self.timings if t.algorithm is algo)
            for algo in self.config.algorithms
        }

    @property
    def speedups_vs_proposed(self) -> dict[str, float]:
        """Each other algorithm's ``speedup_percent``, leaving out one that
        is not finite: empty without Proposed or when Proposed averages
        0 seconds, and without an entry that overflows."""
        averages = self.averages
        ref = averages.pop(AlgorithmId.PROPOSED.value, 0.0)
        if ref == 0.0:
            return {}
        speedups = {name: speedup_percent(ref, avg) for name, avg in averages.items()}
        return {name: pct for name, pct in speedups.items() if isfinite(pct)}


_PACK_RECORD = struct.Struct("<Q4d")


class _ResultFold:
    """Order-sensitive 64-bit digest over a stream of clip results.

    BLAKE2b (8-byte digest) over, per accepted result in stream order,
    its 0-based stream index as a little-endian u64 and x1, y1, x2, y2
    as little-endian IEEE doubles, then the result count as a u64.  The
    digest is read as a little-endian int and printed as 16 hex digits.
    An accept/reject flip moves the indices or the count, so the digest.
    """

    __slots__ = ("_h", "_count", "accepted")

    def __init__(self) -> None:
        self._h = blake2b(digest_size=8)
        self._count = 0
        self.accepted = 0

    def update(self, results) -> None:
        h = self._h
        pack = _PACK_RECORD.pack
        accepted = self.accepted
        # An accept is a 4-tuple, always true, so compress skips only None.
        for i, (x1, y1, x2, y2) in compress(enumerate(results, self._count), results):
            h.update(pack(i, x1, y1, x2, y2))
            accepted += 1
        self._count += len(results)
        self.accepted = accepted

    def digest(self) -> int:
        h = self._h.copy()
        h.update(self._count.to_bytes(8, "little"))
        return int.from_bytes(h.digest(), "little")


def mean_seconds(values) -> float:
    """Arithmetic mean at full precision; rounding is display-only.  The
    mean of finite values is finite, even where their sum overflows."""
    values = list(values)
    if not values:
        raise ValueError("mean of an empty sequence")
    mean = sum(values) / len(values)
    if isinf(mean):
        # Scaled down by 2^k >= len(values), which is exact, the sum cannot overflow.
        k = len(values).bit_length()
        mean = ldexp(fsum(ldexp(v, -k) for v in values) / len(values), k)
    return mean


def speedup_percent(proposed_avg: float, other_avg: float) -> float:
    """|other - proposed| / proposed * 100, the reference algorithm's
    average always in the denominator."""
    if proposed_avg <= 0:
        raise ValueError("reference average must be positive")
    return abs(other_avg - proposed_avg) / proposed_avg * 100.0


def run_bench(config: BenchConfig) -> BenchReport:
    """Run the timed protocol and return its report.

    Each chunk of the stream is materialized once, then clipped by every
    repetition and, within a repetition, by every algorithm.  Every pass
    is timed and folded, and each (algorithm, repetition) timer and
    checksum accumulates across chunks.  Building
    the report raises BenchInvariantError when the algorithms disagree
    on the accepted count or when one algorithm's accepted count or
    checksum differs between repetitions.
    """
    wx0, wy0, wx1, wy1 = config.window
    kernels = [(algo, KERNELS[algo]) for algo in config.algorithms]
    runs = [(algo, rep) for rep in range(1, config.repetitions + 1) for algo in config.algorithms]
    elapsed = dict.fromkeys(runs, 0.0)
    folds = {run: _ResultFold() for run in runs}

    perf = time.perf_counter
    for buf in _stream(_materialize, config.seed, config.space, config.lines_per_run, CHUNK_SIZE):
        for rep in range(1, config.repetitions + 1):
            for algo, kernel in kernels:
                t0 = perf()
                results = [
                    kernel(ax, ay, bx, by, wx0, wy0, wx1, wy1)
                    for ax, ay, bx, by in buf
                ]
                # Read before the dict lookup, which the timer must not cover.
                dt = perf() - t0
                elapsed[algo, rep] += dt
                folds[algo, rep].update(results)
                # Freed here, or the next pass's timer would cover the
                # release of this pass's list and accepted tuples.
                del results

    return BenchReport(config, [
        RunTiming(algo, rep, elapsed[algo, rep], folds[algo, rep].accepted, folds[algo, rep].digest())
        for algo, rep in runs
    ])


# ---------------------------------------------------------------------------
# Rendering


def _fmt_seconds(value: float) -> str:
    from decimal import ROUND_HALF_EVEN, ROUND_HALF_UP, Context, Decimal

    # Run tables carry millisecond precision, so their means have at most
    # four meaningful decimals; quantizing there first drops binary
    # summation noise before the half-up display rounding.  A finite
    # double has at most 309 integer digits, so 313 digits hold every
    # quantized value, where the default 28 would raise from 1e24 up.
    wide = Context(prec=313)
    q = Decimal(repr(value)).quantize(Decimal("0.0001"), ROUND_HALF_EVEN, wide)
    return str(q.quantize(Decimal("0.001"), ROUND_HALF_UP, wide))


def render_report(report: BenchReport, fmt: str) -> str:
    """Serialize a report; ``fmt`` is ``csv``, ``md`` (markdown) or ``json``."""
    render = REPORT_FORMATS.get(fmt)
    if render is None:
        raise ValueError(f"unknown report format: {fmt!r}")
    return render(report)


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
        f"- space: {tuple(cfg.space)}, window: {tuple(cfg.window)}",
        "",
        "| Exec. | " + " | ".join(names) + " |",
        "|" + "---|" * (len(names) + 1),
    ]
    by_algo_run = {(t.algorithm, t.run_index): t for t in report.timings}
    for run in range(1, cfg.repetitions + 1):
        cells = [_fmt_seconds(by_algo_run[(a, run)].seconds) for a in algos]
        out.append(f"| {run} | " + " | ".join(cells) + " |")
    averages = report.averages
    out.append("| Avg | " + " | ".join(_fmt_seconds(averages[n]) for n in names) + " |")
    speedups = report.speedups_vs_proposed
    if speedups:
        speed_cells = [f"{speedups[n]:.2f}" if n in speedups else "-" for n in names]
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
        "config": dict(cfg._asdict(), algorithms=[a.value for a in cfg.algorithms]),
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


# Each report format's renderer, in the order ``--format`` lists them.
REPORT_FORMATS = {"csv": _render_csv, "md": _render_markdown, "json": _render_json}


def parse_report(text: str) -> BenchReport:
    """Inverse of the json rendering; parse(render(r)) == r.  Only the
    config and timings are read, and the report is built from them as
    ``run_bench`` builds it: a config key that is missing raises
    KeyError, and timings that break what a report promises raise
    ValueError or BenchInvariantError."""
    doc = json.loads(text)
    c = doc["config"]
    return BenchReport(BenchConfig(*(c[f] for f in BenchConfig._fields)), [
        RunTiming(t["algorithm"], t["run"], t["seconds"], t["accepted"], t["checksum"])
        for t in doc["timings"]
    ])
