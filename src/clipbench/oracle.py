"""Exact rational reference clipper used as ground truth in tests.

Inputs are lifted losslessly to rationals through their exact
``as_integer_ratio()``, so coordinates may be floats (every double is
exactly representable), ints, Fractions or Decimals.  They are scaled to
a common integer grid and clipped with the parametric interval method
over arbitrary-precision integers.  The method is deliberately different
from all seven production clippers so its failure modes are independent
of the code under test.

A ``grazing`` flag marks the measure-zero inputs where floating-point
clippers may legitimately disagree with each other: results that
degenerate to a single point, segments lying exactly on a boundary edge
line, segment endpoints lying exactly on the boundary, and supporting
lines that touch the closed window in exactly one point.

One fast path skips the integer lift.  When all eight coordinates are
exact ``float`` instances and both endpoints lie strictly beyond the
same window side, plain float comparisons already prove the reject.
Its grazing flag then depends only on whether the supporting line
passes through a window corner, and Shewchuk's filtered orient2d
predicate (Adaptive Precision Floating-Point Arithmetic and Fast Robust
Geometric Predicates, 1997) certifies in floats that it passes through
none.  Only a certified case returns early, as a non-grazing reject.
Every other case takes the integer path: accepts, rejects that are not
trivially outside one side, orientations too close to zero for the
error bound, underflow-scale, infinite or NaN values, and every
non-float input.  So the outcome is the exact one either way.  The
fast path tests what Cohen-Sutherland's trivial reject tests, but its
comparisons are exact and it uses a float sign only when certified, so
it has no rounding error to share with any clipper.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from typing import Optional

from .geom import ClipWindow, Segment

__all__ = ["ExactClipOutcome", "clip_exact"]

RationalPoint = tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ExactClipOutcome:
    """Accept with exact rational endpoints, or reject; plus the grazing flag."""

    accepted: bool
    grazing: bool
    p1: Optional[RationalPoint] = None
    p2: Optional[RationalPoint] = None


# Rejects carry no endpoints, so every reject shares one of these two
# frozen instances instead of building a new one per case.
_REJECT = ExactClipOutcome(False, False)
_REJECT_GRAZING = ExactClipOutcome(False, True)

# Shewchuk's stage-A error bound for a float orient2d determinant,
# (3 + 16 eps) eps with eps = 2**-53, and the magnitude below which
# underflow could void it.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_TINY = 2.0**-900


def _coords(obj, kind) -> tuple:
    if type(obj) is tuple and len(obj) == 4:
        return obj
    if isinstance(obj, Segment):
        vals = obj.coords()
    elif isinstance(obj, ClipWindow):
        vals = obj.bounds()
    else:
        vals = tuple(obj)
    if len(vals) != 4:
        raise ValueError(f"{kind} must provide exactly 4 coordinates")
    return vals


@lru_cache(maxsize=32)
def _lift_window(bounds) -> tuple[int, int, int, int, int]:
    """Window bounds as integers over their least common denominator WL,
    plus WL.

    Cached per distinct bounds tuple.  A hit is exact: numerically equal
    keys have equal reduced ratios, whatever their numeric types.  A bad
    window raises on every call, because exceptions are not cached.
    """
    ratios = [v.as_integer_ratio() for v in bounds]
    WL = lcm(*(d for _, d in ratios))
    xmin, ymin, xmax, ymax = (n * (WL // d) for n, d in ratios)
    # Scaling by the positive per-case factor L // WL keeps this order.
    if not (xmin < xmax and ymin < ymax):
        raise ValueError("window bounds must satisfy xmin < xmax and ymin < ymax")
    return xmin, ymin, xmax, ymax, WL


def _interval_ints(X1, Y1, DX, DY, XMIN, YMIN, XMAX, YMAX):
    """[0,1] intersected with the four half-plane constraints.

    Returns (t0n, t0d, t1n, t1d) with positive denominators, or None.
    """
    t0n, t0d = 0, 1
    t1n, t1d = 1, 1
    for p, q in (
        (DX, XMAX - X1),
        (-DX, X1 - XMIN),
        (DY, YMAX - Y1),
        (-DY, Y1 - YMIN),
    ):
        # Constraint: p * t <= q.
        if p == 0:
            if q < 0:
                return None
        elif p > 0:
            if q * t1d < t1n * p:
                t1n, t1d = q, p
        else:
            pn, qn = -p, -q  # t >= qn / pn with pn > 0
            if qn * t0d > t0n * pn:
                t0n, t0d = qn, pn
        if t1n * t0d < t0n * t1d:
            return None
    return t0n, t0d, t1n, t1d


def _on_boundary(X, Y, XMIN, YMIN, XMAX, YMAX) -> bool:
    if not (XMIN <= X <= XMAX and YMIN <= Y <= YMAX):
        return False
    return X == XMIN or X == XMAX or Y == YMIN or Y == YMAX


def _line_touches_single_point(X1, Y1, DX, DY, XMIN, YMIN, XMAX, YMAX) -> bool:
    # A line touches the closed rectangle in exactly one point iff it
    # passes through exactly one corner with the other three corners
    # strictly on one side.
    zeros = 0
    pos = 0
    neg = 0
    for CX, CY in ((XMIN, YMIN), (XMAX, YMIN), (XMAX, YMAX), (XMIN, YMAX)):
        s = DX * (CY - Y1) - DY * (CX - X1)
        if s == 0:
            zeros += 1
        elif s > 0:
            pos += 1
        else:
            neg += 1
    return zeros == 1 and (pos == 3 or neg == 3)


def _certified_plain_reject(x1, y1, x2, y2, xmin, ymin, xmax, ymax) -> bool:
    """True when double arithmetic alone proves the exact outcome is a
    non-grazing reject; False means "not proven", never "accepted".

    Both endpoints must lie strictly beyond one window side, so the
    segment misses the closed window, and every window corner must be
    certified off the supporting line, so the line touches no corner.
    Each corner test is Shewchuk's stage-A filtered orient2d: the float
    ``detleft - detright`` is nonzero with the exact sign when its
    magnitude exceeds ``_ORIENT_ERRBOUND * (|detleft| + |detright|)``.
    That bound assumes neither overflow nor underflow, so a non-finite
    or underflow-scale sum, which NaN and infinite coordinates produce,
    is not certified.  Arguments must be exact floats.
    """
    if not (
        (x1 < xmin and x2 < xmin)
        or (x1 > xmax and x2 > xmax)
        or (y1 < ymin and y2 < ymin)
        or (y1 > ymax and y2 > ymax)
    ):
        return False
    ax0 = x1 - xmin
    ax1 = x1 - xmax
    ay0 = y1 - ymin
    ay1 = y1 - ymax
    bx0 = x2 - xmin
    bx1 = x2 - xmax
    by0 = y2 - ymin
    by1 = y2 - ymax
    for detleft, detright in (
        (ax0 * by0, ay0 * bx0),
        (ax1 * by0, ay0 * bx1),
        (ax1 * by1, ay1 * bx1),
        (ax0 * by1, ay1 * bx0),
    ):
        detsum = abs(detleft) + abs(detright)
        if not (
            _ORIENT_TINY < detsum < inf
            and abs(detleft - detright) > _ORIENT_ERRBOUND * detsum
        ):
            return False
    return True


def clip_exact(seg, window) -> ExactClipOutcome:
    """Exact parametric clip of a segment against a window.

    ``seg`` is a Segment or any 4-sequence (x1, y1, x2, y2); ``window``
    is a ClipWindow or any 4-sequence (xmin, ymin, xmax, ymax).
    Coordinates may be of any type with an exact ``as_integer_ratio()``:
    float, int, Fraction or Decimal.
    """
    x1, y1, x2, y2 = _coords(seg, "segment")
    bounds = _coords(window, "window")
    # Lifting first validates the window on every path, the fast one too.
    wx0, wy0, wx1, wy1, WL = _lift_window(bounds)
    xmin, ymin, xmax, ymax = bounds
    # Exact type: the error bound holds for IEEE double arithmetic only,
    # which a float subclass, Decimal, Fraction or int need not follow.
    if (
        type(x1) is type(y1) is type(x2) is type(y2) is float
        and type(xmin) is type(ymin) is type(xmax) is type(ymax) is float
        and _certified_plain_reject(x1, y1, x2, y2, xmin, ymin, xmax, ymax)
    ):
        return _REJECT
    x1n, x1d = x1.as_integer_ratio()
    y1n, y1d = y1.as_integer_ratio()
    x2n, x2d = x2.as_integer_ratio()
    y2n, y2d = y2.as_integer_ratio()
    L = lcm(x1d, y1d, x2d, y2d, WL)
    X1 = x1n * (L // x1d)
    Y1 = y1n * (L // y1d)
    X2 = x2n * (L // x2d)
    Y2 = y2n * (L // y2d)
    k = L // WL
    XMIN = wx0 * k
    YMIN = wy0 * k
    XMAX = wx1 * k
    YMAX = wy1 * k

    DX = X2 - X1
    DY = Y2 - Y1
    if DX == 0 and DY == 0:
        # Point segment: a single-point result whenever it is inside.
        if XMIN <= X1 <= XMAX and YMIN <= Y1 <= YMAX:
            p = (Fraction(X1, L), Fraction(Y1, L))
            return ExactClipOutcome(True, True, p, p)
        return _REJECT

    iv = _interval_ints(X1, Y1, DX, DY, XMIN, YMIN, XMAX, YMAX)
    if iv is None:
        if _line_touches_single_point(X1, Y1, DX, DY, XMIN, YMIN, XMAX, YMAX):
            return _REJECT_GRAZING
        return _REJECT

    t0n, t0d, t1n, t1d = iv
    p1 = (Fraction(X1 * t0d + t0n * DX, t0d * L), Fraction(Y1 * t0d + t0n * DY, t0d * L))
    p2 = (Fraction(X1 * t1d + t1n * DX, t1d * L), Fraction(Y1 * t1d + t1n * DY, t1d * L))
    grazing = (
        t0n * t1d == t1n * t0d
        or (DX == 0 and (X1 == XMIN or X1 == XMAX))
        or (DY == 0 and (Y1 == YMIN or Y1 == YMAX))
        or (t0n == 0 and _on_boundary(X1, Y1, XMIN, YMIN, XMAX, YMAX))
        or (t1n == t1d and _on_boundary(X2, Y2, XMIN, YMIN, XMAX, YMAX))
    )
    return ExactClipOutcome(True, grazing, p1, p2)
