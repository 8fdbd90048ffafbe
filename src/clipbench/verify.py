"""Oracle-equivalence sweeps: every clipper against the exact reference.

A sweep clips a seeded random stream plus a built-in adversarial suite
with every algorithm and compares each outcome against the exact
rational clipper.  Cases the oracle flags as grazing are exempt from
agreement, but an accepted grazing result must still land inside the
(tolerance-padded) window and on the input segment's supporting line.

The sweep walks the stream through ``bench._stream``, the walker
``run_bench`` shares, in blocks of ``_BLOCK`` cases, so the stream is
never held whole; the adversarial suite follows as one more block.  In
each block the oracle runs once per case, against one window prepared
for the whole sweep, and gives the case its verdict in the kernels' own
form, ``clip_exact(seg, window)``: None for a non-grazing reject, the
exact endpoints rounded to the nearest doubles for an accept, or
``oracle.GRAZING``.  Each kernel then runs once over the block, and its
results are checked against the verdicts in one pass, in case order, so
failures are recorded in case order.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat
from math import fsum, hypot, isfinite, ulp

from .bench import _materialize, _require_count, _stream, require_seed
from .clippers import KERNELS, AlgorithmId
from .geom import ClipWindow, require_window_in_space
from .oracle import GRAZING, _ExactWindow, clip_exact

__all__ = ["AlgorithmCheck", "VerificationReport", "adversarial_segments", "run_verification"]

# Cases per generated block and per oracle and kernel pass.  Blocks bound
# the stream as well as the per-pass lists, so a sweep's peak RSS does not
# grow with its case count.  A multiple of the generator's own block
# (bench._BLOCK), so bench._stream does one whole-stream call's lane work.
_BLOCK = 1024


class AlgorithmCheck(namedtuple(
        "AlgorithmCheck", "algorithm matches grazing_exempt mismatches failures",
        defaults=(0, 0, 0, ()))):
    """Per-algorithm tallies of a sweep; the three buckets are disjoint.

    ``failures`` holds the first ten (segment, reason) pairs, in case order.
    """

    __slots__ = ()


class VerificationReport(namedtuple(
        "VerificationReport", "random_cases adversarial_cases random_grazing checks")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.mismatches == 0 for c in self.checks)


def adversarial_segments(window: ClipWindow) -> list[tuple[float, float, float, float]]:
    """Deterministic stress cases built from the window geometry:
    degenerate points, axis-parallel and boundary-collinear segments,
    corner-grazing diagonals, and exact boundary touches."""
    x0, y0, x1, y1 = window
    w = x1 - x0
    h = y1 - y0
    cx = x0 + w / 2.0
    cy = y0 + h / 2.0
    corners = ((x0, y0), (x1, y0), (x1, y1), (x0, y1))
    cases: list[tuple[float, float, float, float]] = []

    # Degenerate points: center, corners, edge midpoints, outside each side.
    for px, py in ((cx, cy), *corners, (cx, y0), (cx, y1), (x0, cy), (x1, cy),
                   (x0 - w, cy), (x1 + w, cy), (cx, y0 - h), (cx, y1 + h)):
        cases.append((px, py, px, py))

    # Axis-parallel segments: crossing, inside, outside, partial overlap.
    cases.append((x0 - w, cy, x1 + w, cy))          # horizontal full crossing
    cases.append((x1 + w, cy, x0 - w, cy))          # reversed direction
    cases.append((cx, y0 - h, cx, y1 + h))          # vertical full crossing
    cases.append((cx, y1 + h, cx, y0 - h))
    cases.append((x0 + w / 4, cy, x1 - w / 4, cy))  # horizontal fully inside
    cases.append((cx, y0 + h / 4, cx, y1 - h / 4))  # vertical fully inside
    cases.append((x0 - w, y1 + h / 2, x1 + w, y1 + h / 2))  # horizontal above
    cases.append((x0 - w / 2, cy, x0 - w / 4, cy))  # horizontal left of window
    cases.append((x0 - w, cy, cx, cy))              # horizontal partial overlap
    cases.append((cx, cy, cx, y1 + h))              # vertical partial overlap

    # Boundary-collinear segments on each edge line: spanning past both
    # corners, lying inside the edge, and outside the edge span.
    for (ax, ay, bx, by) in (
        (x0 - w, y0, x1 + w, y0),      # bottom edge line, spanning
        (x0 + w / 4, y0, x1 - w / 4, y0),
        (x1 + w / 4, y0, x1 + w, y0),  # on the line, beyond the corner
        (x0 - w, y1, x1 + w, y1),      # top
        (x0 + w / 4, y1, x1 - w / 4, y1),
        (x0, y0 - h, x0, y1 + h),      # left
        (x0, y0 + h / 4, x0, y1 - h / 4),
        (x0, y1 + h / 4, x0, y1 + h),
        (x1, y0 - h, x1, y1 + h),      # right
        (x1, y0 + h / 4, x1, y1 - h / 4),
    ):
        cases.append((ax, ay, bx, by))

    # Corner grazing: tangent diagonals touching exactly one corner, in both
    # directions.  p +- step stays exact: half extent t is fl(|p| + t) - |p|
    # (Sterbenz) if |p| >= t, else t if exact, else |p|, or the extent at 0.
    def step(p, s, extent):
        a, t = abs(p), max(extent / 2.0, ulp(p))
        if a < t and (fsum((a, t, -(a + t))) or fsum((a, -t, -(a - t)))):
            t = a or extent
        return s * ((a + t) - a if a >= t else t)

    for (px, py), (sx, sy) in zip(corners, ((-1, 1), (1, 1), (1, -1), (-1, -1))):
        dxv = step(px, sx, w)
        dyv = step(py, sy, h)
        cases.append((px - dxv, py - dyv, px + dxv, py + dyv))
        cases.append((px + dxv, py + dyv, px - dxv, py - dyv))

    # Diagonals through corners into the interior, and corner to corner.
    cases.append((x0 - w / 2, y0 - h / 2, x1 + w / 2, y1 + h / 2))  # main diagonal extended
    cases.append((x0 - w / 2, y1 + h / 2, x1 + w / 2, y0 - h / 2))  # anti-diagonal extended
    cases.append((x0, y0, x1, y1))                                  # corner to corner exactly
    cases.append((x1, y0, x0, y1))
    cases.append((x0 - w, y0 - h, x0, y0))  # ends exactly at a corner from outside
    cases.append((x0, y0, x0 - w, y0 - h))  # starts at a corner going outward

    # Endpoint exactly on a boundary, heading in or out.
    cases.append((x0, cy, x0 - w, cy))
    cases.append((x0, cy, cx, cy))
    cases.append((cx, y1, cx, y1 + h))
    cases.append((cx, y1, cx, cy))

    # Near misses and shallow crossings.
    eps = max(w, h) * 1e-7
    cases.append((x0 - w, y1 + eps, x1 + w, y1 + eps))
    cases.append((x0 - w, y1 - eps, x1 + w, y1 - eps))
    cases.append((x0 - w, y0 - h, x1 + w, y1 + h))  # steep span across everything
    cases.append((x0 - 3 * w, cy - h / 8, x1 + 3 * w, cy + h / 8))
    return cases


def _grazing_accept_valid(res, seg, x0, y0, x1, y1, pad, tol) -> bool:
    ax, ay, bx, by = res
    if not (x0 - pad <= ax <= x1 + pad and y0 - pad <= ay <= y1 + pad):
        return False
    if not (x0 - pad <= bx <= x1 + pad and y0 - pad <= by <= y1 + pad):
        return False
    sx1, sy1, sx2, sy2 = seg
    dx = sx2 - sx1
    dy = sy2 - sy1
    scale = max(1.0, abs(sx1), abs(sy1), abs(sx2), abs(sy2))
    if dx == 0.0 and dy == 0.0:
        return (
            abs(ax - sx1) <= tol * scale
            and abs(ay - sy1) <= tol * scale
            and abs(bx - sx1) <= tol * scale
            and abs(by - sy1) <= tol * scale
        )
    norm = hypot(dx, dy)
    for px, py in ((ax, ay), (bx, by)):
        dist = abs(dy * (px - sx1) - dx * (py - sy1)) / norm
        if dist > 1e-6 * max(scale, abs(px), abs(py)):
            return False
    return True


def run_verification(
    cases: int,
    seed: int,
    space,
    window,
    tolerance: float = 1e-9,
    kernels=None,
) -> VerificationReport:
    """Sweep ``cases`` seeded segments plus the adversarial suite.

    ``space`` and ``window`` are any four bounds (xmin, ymin, xmax, ymax),
    such as ``ClipWindow``s.  Raises ValueError for bad bounds, negative
    ``cases``, a ``cases`` or ``seed`` that is not an int (a bool is not
    one), a seed outside 64 bits, a ``tolerance`` that is not finite
    and >= 0 (NaN would silently disable the endpoint comparison), or a
    window outside the space or the kernels' exact domain.

    ``kernels`` may override individual algorithm kernels, which is how
    the harness itself is tested against deliberately broken clippers.
    Each key goes through ``AlgorithmId(key)``: a member or its report
    spelling (``"Proposed"``) works, any other key raises ValueError.
    """
    space = ClipWindow(*space)
    window = ClipWindow(*window)
    _require_count("cases", cases, 0)
    require_seed(seed)
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    require_window_in_space(window, space)
    kernel_map = dict(KERNELS)
    if kernels:
        kernel_map.update((AlgorithmId(a), k) for a, k in kernels.items())
    checks = [AlgorithmCheck(a) for a in AlgorithmId]

    x0, y0, x1, y1 = window
    exact_window = _ExactWindow(window)
    pad = 1e-9 * max(1.0, x1 - x0, y1 - y0)
    suite = adversarial_segments(window)
    random_grazing = 0

    for block in chain(_stream(_materialize, seed, space, cases, _BLOCK), [suite]):
        # One oracle call per case gives the case's verdict.
        verdicts = list(map(clip_exact, block, repeat(exact_window)))
        if block is not suite:
            random_grazing += verdicts.count(GRAZING)

        for k, check in enumerate(checks):
            kernel = kernel_map[check.algorithm]
            results = [kernel(sx1, sy1, sx2, sy2, x0, y0, x1, y1)
                       for sx1, sy1, sx2, sy2 in block]
            exempt = 0
            failed = []
            for seg, res, exp in zip(block, results, verdicts):
                if res is exp:
                    continue  # both reject
                if exp is GRAZING:
                    if res is None or _grazing_accept_valid(
                            res, seg, x0, y0, x1, y1, pad, tolerance):
                        exempt += 1
                    else:
                        failed.append((seg, "grazing accept violates containment or collinearity"))
                elif res is None:
                    failed.append((seg, "rejects where the exact clipper accepts"))
                elif exp is None:
                    failed.append((seg, "accepts where the exact clipper rejects"))
                # Written so that a NaN coordinate, which compares False
                # with everything, is a mismatch.
                elif not (
                    abs(res[0] - exp[0]) <= tolerance
                    and abs(res[1] - exp[1]) <= tolerance
                    and abs(res[2] - exp[2]) <= tolerance
                    and abs(res[3] - exp[3]) <= tolerance
                ):
                    failed.append((seg, "accepted endpoints differ from the exact clip"))
            checks[k] = AlgorithmCheck(
                check.algorithm,
                check.matches + len(block) - exempt - len(failed),
                check.grazing_exempt + exempt,
                check.mismatches + len(failed),
                check.failures + tuple(failed[:10 - len(check.failures)]),
            )

    return VerificationReport(cases, len(suite), random_grazing, tuple(checks))
