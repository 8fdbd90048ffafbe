"""A fixed yardstick of host speed, timed between samples.

The benchmark's host is a few cores of a shared machine whose speed
drifts by a third or more over minutes, in CPU time as much as in wall
time.  run.py, pinned to one CPU, times this routine after every
sample and divides the run's mean sample times by its mean time, so
that drift cancels and a change in clipbench shows.  The routine never imports clipbench, so no change to
the program moves it.  Its mix follows the program's: a splitmix64
stream of big-integer steps mapped to doubles, a parametric float clip
that builds result tuples, a blake2b fold over packed results, and exact
rational arithmetic on a share of the segments.

Changing anything here changes every normalised number; compare only
runs made with the same copy of this file.
"""

from __future__ import annotations

import struct
import time
from fractions import Fraction
from hashlib import blake2b

MASK64 = (1 << 64) - 1
SEGMENTS = 8_000
EXACT_EVERY = 4  # one segment in this many also goes through Fraction arithmetic
WINDOWS = ((-100.0, -75.0, 100.0, 75.0), (-400.0, -300.0, 400.0, 300.0), (-900.0, -700.0, 900.0, 700.0))
SPACE = (-960.0, -720.0, 960.0, 720.0)


def _splitmix(state):
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31), state


def _clip(ax, ay, bx, by, x0, y0, x1, y1):
    dx, dy = bx - ax, by - ay
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, ax - x0), (dx, x1 - ax), (-dy, ay - y0), (dy, y1 - ay)):
        if p == 0.0:
            if q < 0.0:
                return None
            continue
        r = q / p
        if p < 0.0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    return (ax + t0 * dx, ay + t0 * dy, ax + t1 * dx, ay + t1 * dy)


def work(seed: int = 1) -> tuple[int, int]:
    """One fixed unit of work; returns (accepted, digest) so it cannot be skipped."""
    xlo, ylo, xhi, yhi = SPACE
    state = seed
    buf = []
    for _ in range(SEGMENTS):
        coords = []
        for lo, span in ((xlo, xhi - xlo), (ylo, yhi - ylo), (xlo, xhi - xlo), (ylo, yhi - ylo)):
            u, state = _splitmix(state)
            coords.append(lo + (u / 2.0**64) * span)
        buf.append(tuple(coords))
    h = blake2b(digest_size=8)
    pack = struct.Struct("<4d").pack
    accepted = 0
    for i, (ax, ay, bx, by) in enumerate(buf):
        for x0, y0, x1, y1 in WINDOWS:
            r = _clip(ax, ay, bx, by, x0, y0, x1, y1)
            if r is not None:
                accepted += 1
                h.update(pack(*r))
        if i % EXACT_EVERY == 0:
            cross = Fraction(ax) * Fraction(by) - Fraction(ay) * Fraction(bx)
            h.update(cross.numerator.to_bytes(80, "little", signed=True))
    return accepted, int.from_bytes(h.digest(), "little")


EXPECTED = work()


def timed() -> float:
    """Seconds one unit of work takes now; checks its result."""
    t0 = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - t0
    if result != EXPECTED:
        raise RuntimeError(f"reference work returned {result}, expected {EXPECTED}")
    return seconds
