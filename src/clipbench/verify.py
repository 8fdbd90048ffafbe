"""Oracle-equivalence sweeps: every clipper against the exact reference.

A sweep clips a seeded random stream plus a built-in adversarial suite
with every algorithm and compares each outcome against the exact
rational clipper.  Cases the oracle flags as grazing are exempt from
agreement, but an accepted grazing result must still land inside the
(tolerance-padded) window and on the input segment's supporting line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import hypot, isfinite

from .bench import _materialize, require_seed
from .clippers import KERNELS, AlgorithmId
from .geom import ClipWindow, require_window_in_space
from .oracle import clip_exact

__all__ = ["AlgorithmCheck", "VerificationReport", "adversarial_segments", "run_verification"]


@dataclass
class AlgorithmCheck:
    """Per-algorithm tallies; the three buckets are disjoint."""

    algorithm: AlgorithmId
    matches: int = 0
    grazing_exempt: int = 0
    mismatches: int = 0
    failures: list[tuple[tuple[float, float, float, float], str]] = field(default_factory=list)

    def fail(self, seg, reason: str) -> None:
        self.mismatches += 1
        if len(self.failures) < 10:
            self.failures.append((seg, reason))


@dataclass
class VerificationReport:
    random_cases: int
    adversarial_cases: int
    random_grazing: int
    checks: list[AlgorithmCheck]

    @property
    def ok(self) -> bool:
        return all(c.mismatches == 0 for c in self.checks)


def adversarial_segments(window: ClipWindow) -> list[tuple[float, float, float, float]]:
    """Deterministic stress cases built from the window geometry:
    degenerate points, axis-parallel and boundary-collinear segments,
    corner-grazing diagonals, and exact boundary touches."""
    x0, y0, x1, y1 = window.bounds()
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

    # Corner grazing: tangent diagonals touching exactly one corner, in
    # both directions.
    for (px, py), (sx, sy) in zip(corners, ((-1, 1), (1, 1), (1, -1), (-1, -1))):
        dxv = sx * w / 2.0
        dyv = sy * h / 2.0
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
    space: ClipWindow,
    window: ClipWindow,
    tolerance: float = 1e-9,
    kernels=None,
) -> VerificationReport:
    """Sweep ``cases`` seeded segments plus the adversarial suite.

    Raises ValueError for negative ``cases``, a seed outside 64 bits, a
    ``tolerance`` that is not finite and >= 0 (NaN would silently disable
    the endpoint comparison), or a window outside the space.

    ``kernels`` may override individual algorithm kernels, which is how
    the harness itself is tested against deliberately broken clippers.
    """
    if cases < 0:
        raise ValueError("cases must be >= 0")
    require_seed(seed)
    if not (isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance!r}")
    require_window_in_space(window, space)
    kernel_map = dict(KERNELS)
    if kernels:
        kernel_map.update(kernels)
    checks = [AlgorithmCheck(a) for a in AlgorithmId]
    kernel_checks = [(kernel_map[check.algorithm], check) for check in checks]

    x0, y0, x1, y1 = window.bounds()
    wbounds = (x0, y0, x1, y1)
    extent = max(x1 - x0, y1 - y0)
    pad = 1e-9 * max(1.0, extent)

    random_buf, _ = _materialize(seed, space, cases)
    suite = adversarial_segments(window)
    random_grazing = 0

    for idx, seg in enumerate(random_buf + suite):
        sx1, sy1, sx2, sy2 = seg
        exact = clip_exact(seg, wbounds)
        grazing = exact.grazing
        accepted = exact.accepted
        if grazing and idx < cases:
            random_grazing += 1
        if accepted:
            gx1 = float(exact.p1[0])
            gy1 = float(exact.p1[1])
            gx2 = float(exact.p2[0])
            gy2 = float(exact.p2[1])
        for kernel, check in kernel_checks:
            res = kernel(sx1, sy1, sx2, sy2, x0, y0, x1, y1)
            if grazing:
                if res is not None and not _grazing_accept_valid(
                    res, seg, x0, y0, x1, y1, pad, tolerance
                ):
                    check.fail(seg, "grazing accept violates containment or collinearity")
                else:
                    check.grazing_exempt += 1
            elif not accepted:
                if res is None:
                    check.matches += 1
                else:
                    check.fail(seg, "accepts where the exact clipper rejects")
            elif res is None:
                check.fail(seg, "rejects where the exact clipper accepts")
            elif (
                abs(res[0] - gx1) > tolerance
                or abs(res[1] - gy1) > tolerance
                or abs(res[2] - gx2) > tolerance
                or abs(res[3] - gy2) > tolerance
            ):
                check.fail(seg, "accepted endpoints differ from the exact clip")
            else:
                check.matches += 1

    return VerificationReport(cases, len(suite), random_grazing, checks)
