"""Exact rational reference clipper used as ground truth in tests.

Inputs are lifted losslessly to rationals through their exact
``as_integer_ratio()``, so coordinates may be floats (every double is
exactly representable), ints, Fractions or Decimals; a value without
one, such as a str or None, raises TypeError on every path, as
``Segment`` and ``ClipWindow`` do.  They are scaled to
a common integer grid and clipped with the parametric interval method
over arbitrary-precision integers.  The method is deliberately different
from all seven production clippers so its failure modes are independent
of the code under test.

A ``grazing`` flag marks the measure-zero inputs where floating-point
clippers may legitimately disagree with each other: results that
degenerate to a single point, segments lying exactly on a boundary edge
line, segment endpoints lying exactly on the boundary, and supporting
lines that touch the closed window in exactly one point.

``clip_exact(seg, window)`` answers in ``clip``'s form: None for a
non-grazing reject, ``GRAZING`` for every grazing case, and otherwise
the accept's four coordinates as ``n / d`` of its unreduced integers,
which is the nearest double because int true division is correctly
rounded; it builds no outcome and no ``Fraction``.
``ExactClipOutcome.of(seg, window)`` builds the exact record from the
integer path alone, never the float filter below.  Every value stays
exact up to one final rounding, so the oracle shares no arithmetic with
any clipper.

A sweep clips many segments against one window, so the window can be
prepared once: ``_ExactWindow`` validates the bounds, lifts them to
integers over their least common denominator and records whether all
four are exact ``float`` instances.  Both entry points take a prepared
window or any bounds form, which they prepare per call.

One fast path in ``clip_exact`` skips the integer lift.  When all eight
coordinates are exact ``float`` instances, ``_certified_plain_reject``
certifies a non-grazing reject in floats with Shewchuk's filtered
orient2d predicate (Adaptive Precision Floating-Point Arithmetic and
Fast Robust Geometric Predicates, 1997), evaluated at the two window
corners where the orientation against the supporting line is extremal;
only a certified case returns early.  Every other case takes the
integer path: accepts, orientations too close to zero for the error
bound, point segments, underflow-scale, infinite or NaN values, and
every non-float input.  So the answer is the exact one's either way.

The integer path is one route: one interval and one grazing expression.
The interval is the supporting line's parameter range in the closed
window, cut to the segment's [0, 1]; an empty cut is a reject, grazing
iff the line's range is a single point.  A point segment's range is
unbounded inside the closed window and empty outside it, and a cut at
t = 0 or t = 1 already puts that endpoint in the closed window, so
neither needs a branch of its own.

An outcome is the pair ``(grazing, ends)``.  An accept's ``ends`` is
the clip in the kernels' segment form, ``(x1, y1, x2, y2)``, as four
``Fraction``s.  A reject has no ends, so ``accepted`` is derived,
``ends is not None``, and no outcome can be an accept without endpoints
or a reject with them.
"""

from __future__ import annotations

from collections import namedtuple
from math import inf, lcm

from .geom import _checked_make

__all__ = ["GRAZING", "ExactClipOutcome", "clip_exact"]

# What clip_exact returns for every grazing case.
GRAZING = object()


class ExactClipOutcome(namedtuple("ExactClipOutcome", "grazing ends", defaults=(None,))):
    """The grazing flag, plus an accept's exact clip.

    An accept's ``ends = (x1, y1, x2, y2)`` is the clipped segment in
    ``clip``'s order; a reject has ``ends=None``, and ``accepted`` is
    ``ends is not None``.  However the outcome is built, ``ends`` must
    hold exactly four coordinates, each made an exact ``Fraction`` in
    lowest terms through its ``as_integer_ratio()``, so outcomes compare
    and hash as tuples by exact value; a coordinate without one, such as
    a str, raises TypeError.
    """

    __slots__ = ()

    def __new__(cls, grazing: bool, ends: tuple | None = None):
        if ends is not None:
            from fractions import Fraction

            x1, y1, x2, y2 = ends
            ends = tuple(Fraction(n, d) for n, d in _ratios((x1, y1, x2, y2), "ends"))
        return super().__new__(cls, grazing, ends)

    @classmethod
    def of(cls, seg, window) -> ExactClipOutcome:
        """The exact outcome, from the integer path alone and never the
        float filter; takes and raises what ``clip_exact`` does.  Each
        ``Fraction`` is built once, in lowest terms, and the record
        keeps it without the constructor's second lift."""
        x1, y1, x2, y2 = seg
        if type(window) is not _ExactWindow:
            window = _ExactWindow(window)
        grazing, ends = _clip_ints(x1, y1, x2, y2, window)
        if ends is not None:
            from fractions import Fraction

            x1n, y1n, d1, x2n, y2n, d2 = ends
            ends = Fraction(x1n, d1), Fraction(y1n, d1), Fraction(x2n, d2), Fraction(y2n, d2)
        return super().__new__(cls, grazing, ends)

    accepted = property(lambda self: self.ends is not None)
    _make = classmethod(_checked_make)


# Shewchuk's stage-A error bound for a float orient2d determinant,
# (3 + 16 eps) eps with eps = 2**-53, and the magnitude below which
# underflow could void it.
_ORIENT_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_ORIENT_TINY = 2.0**-900


def _ratios(values, name: str) -> list[tuple[int, int]]:
    """Each value's exact ``as_integer_ratio()``; TypeError for a value
    without one."""
    try:
        return [v.as_integer_ratio() for v in values]
    except AttributeError:
        raise TypeError(f"{name} must have an exact as_integer_ratio(), got {values!r}") from None


class _ExactWindow:
    """A clip window validated and lifted once, for many ``clip_exact``
    calls; ``run_verification`` builds one per sweep.

    ``bounds`` is the 4-tuple of bounds as given, ``lifted`` the bounds
    as integers over their least common denominator WL, plus WL, and
    ``floats`` whether all four are of exact type ``float``, the
    precondition of the float reject path.  Reversed bounds raise
    ValueError, and so do non-finite ones, which have no integer ratio;
    a bound without ``as_integer_ratio()`` raises TypeError.
    """

    __slots__ = ("bounds", "lifted", "floats")

    def __init__(self, bounds) -> None:
        xmin, ymin, xmax, ymax = bounds
        try:
            ratios = _ratios((xmin, ymin, xmax, ymax), "window bounds")
        except OverflowError:
            raise ValueError("window bounds must be finite") from None
        WL = lcm(*(d for _, d in ratios))
        wx0, wy0, wx1, wy1 = (n * (WL // d) for n, d in ratios)
        # Scaling by the positive per-case factor L // WL keeps this order.
        if not (wx0 < wx1 and wy0 < wy1):
            raise ValueError("window bounds must satisfy xmin < xmax and ymin < ymax")
        self.bounds = xmin, ymin, xmax, ymax
        self.lifted = wx0, wy0, wx1, wy1, WL
        self.floats = type(xmin) is type(ymin) is type(xmax) is type(ymax) is float


def _interval_ints(X1, Y1, DX, DY, XMIN, YMIN, XMAX, YMAX):
    """The supporting line's parameter range in the closed window.

    The x bounds come from the sign of DX and the y bounds from the sign
    of DY; an axis the line does not move along leaves the range
    unbounded, ``(∓1, 0)``, which the cross-multiplied comparisons order
    as -inf and +inf, or empties it when the line lies outside that
    axis's bounds.  Returns (t0n, t0d, t1n, t1d), or None when the line
    misses the window.  A finite end has a positive denominator; only a
    point segment inside the window keeps both unbounded ends.  On a tie
    between the axes the x bound is kept.
    """
    if DX > 0:
        t0n, t1n, t0d = XMIN - X1, XMAX - X1, DX
    elif DX < 0:
        t0n, t1n, t0d = X1 - XMAX, X1 - XMIN, -DX
    elif XMIN <= X1 <= XMAX:
        t0n, t1n, t0d = -1, 1, 0
    else:
        return None
    t1d = t0d
    if DY > 0:
        lo, hi, d = YMIN - Y1, YMAX - Y1, DY
    elif DY < 0:
        lo, hi, d = Y1 - YMAX, Y1 - YMIN, -DY
    elif YMIN <= Y1 <= YMAX:
        return t0n, t0d, t1n, t1d
    else:
        return None
    if lo * t0d > t0n * d:
        t0n, t0d = lo, d
    if hi * t1d < t1n * d:
        t1n, t1d = hi, d
    if t1n * t0d < t0n * t1d:
        return None
    return t0n, t0d, t1n, t1d


def _certified_plain_reject(x1, y1, x2, y2, xmin, ymin, xmax, ymax) -> bool:
    """True when double arithmetic alone proves the exact outcome is a
    non-grazing reject; False means "not proven", never "accepted".

    A corner's orientation against the supporting line is linear in the
    corner, with gradient (y1 - y2, x2 - x1), so over the window its
    extremes lie at one opposite pair: (xmin, ymax) and (xmax, ymin) when
    ``(x2 > x1) is (y2 > y1)``, otherwise (xmin, ymin) and (xmax, ymax).
    Both comparisons are exact in floats.  Each of the two orientations
    is Shewchuk's stage-A filtered orient2d: the float ``detleft -
    detright`` is nonzero with the exact sign when its magnitude exceeds
    ``_ORIENT_ERRBOUND * (|detleft| + |detright|)``.  That bound assumes
    neither overflow nor underflow, so a non-finite or underflow-scale
    sum, which NaN and infinite coordinates produce, is not certified.
    A point segment has no supporting line; its orientations are exactly
    zero and never certified.

    - Both extremes are certified nonzero with one sign, so the whole
      closed window lies strictly on one side of the line, which misses
      it (Skala's corner-sign test, on the two corners that decide it).
      A certified sign is the exact sign, not a rounded one, so this
      shares no rounding error with the Skala clipper, which tests the
      same signs in floats.
    - The extremes are certified with opposite signs, so the line
      crosses the window's interior and a reject cannot graze, and both
      endpoints lie strictly beyond one window side, so the segment
      misses the closed window.

    The four-corner form of the test needs these two corners certified
    too, so this certifies everything it does.  Arguments must be exact
    floats.
    """
    tiny, huge, errbound = _ORIENT_TINY, inf, _ORIENT_ERRBOUND
    if (x2 > x1) is (y2 > y1):
        ya, yb = ymax, ymin
    else:
        ya, yb = ymin, ymax
    # Corner (xmin, ya).
    detleft = (x1 - xmin) * (y2 - ya)
    detright = (y1 - ya) * (x2 - xmin)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if not (tiny < detsum < huge and abs(det) > errbound * detsum):
        return False
    positive = det > 0
    # Corner (xmax, yb).
    detleft = (x1 - xmax) * (y2 - yb)
    detright = (y1 - yb) * (x2 - xmax)
    det = detleft - detright
    detsum = abs(detleft) + abs(detright)
    if not (tiny < detsum < huge and abs(det) > errbound * detsum):
        return False
    return positive is (det > 0) or (
        (x1 < xmin and x2 < xmin)
        or (x1 > xmax and x2 > xmax)
        or (y1 < ymin and y2 < ymin)
        or (y1 > ymax and y2 > ymax)
    )


def _clip_ints(x1, y1, x2, y2, window: _ExactWindow) -> tuple[bool, tuple | None]:
    """The integer path: ``(grazing, ends)``, with ``ends`` None on a
    reject and otherwise the unreduced integers ``(x1, y1, d1, x2, y2,
    d2)``, endpoint i at ``(xi / di, yi / di)``.  A coordinate without
    ``as_integer_ratio()`` raises TypeError."""
    # One try for the four lifts, free when nothing raises.
    try:
        x1n, x1d = x1.as_integer_ratio()
        y1n, y1d = y1.as_integer_ratio()
        x2n, x2d = x2.as_integer_ratio()
        y2n, y2d = y2.as_integer_ratio()
    except AttributeError:
        raise TypeError("segment coordinates must have an exact as_integer_ratio(), "
                        f"got {(x1, y1, x2, y2)!r}") from None
    wx0, wy0, wx1, wy1, WL = window.lifted
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
    iv = _interval_ints(X1, Y1, DX, DY, XMIN, YMIN, XMAX, YMAX)
    if iv is None:
        return False, None
    # Cut the line's range to [0, 1]; a line touching in one point grazes.
    t0n, t0d, t1n, t1d = iv
    if t0n < 0:
        t0n, t0d = 0, 1
    if t1n > t1d:
        t1n, t1d = 1, 1
    if t1n * t0d < t0n * t1d:
        t0n, t0d, t1n, t1d = iv
        return t0n * t1d == t1n * t0d, None

    grazing = (
        t0n * t1d == t1n * t0d
        or (DX == 0 and (DY == 0 or X1 == XMIN or X1 == XMAX))
        or (DY == 0 and (Y1 == YMIN or Y1 == YMAX))
        or (t0n == 0 and (X1 == XMIN or X1 == XMAX or Y1 == YMIN or Y1 == YMAX))
        or (t1n == t1d and (X2 == XMIN or X2 == XMAX or Y2 == YMIN or Y2 == YMAX))
    )
    return grazing, (
        X1 * t0d + t0n * DX, Y1 * t0d + t0n * DY, t0d * L,
        X1 * t1d + t1n * DX, Y1 * t1d + t1n * DY, t1d * L,
    )


def clip_exact(seg, window) -> tuple[float, float, float, float] | object | None:
    """Exact parametric clip of a segment against a window, in the form
    ``clip`` returns.

    ``seg`` is any 4-sequence (x1, y1, x2, y2), such as a Segment;
    ``window`` is a ClipWindow, any 4-sequence (xmin, ymin, xmax, ymax),
    or a window prepared once by ``_ExactWindow``.  Coordinates may be
    of any type with an exact ``as_integer_ratio()``: float, int,
    Fraction or Decimal.  A bad window raises ValueError, prepared or
    not.  A bad segment raises ValueError, except that an infinite
    coordinate raises OverflowError.  A coordinate or bound without
    ``as_integer_ratio()`` raises TypeError.

    Returns None for a non-grazing reject, ``GRAZING`` for any grazing
    case, accept or reject, and otherwise the accept's endpoints as the
    four nearest doubles, (x1, y1, x2, y2).
    """
    x1, y1, x2, y2 = seg
    if type(window) is not _ExactWindow:
        window = _ExactWindow(window)
    # Exact type: the error bound holds for IEEE double arithmetic only,
    # which a float subclass, Decimal, Fraction or int need not follow.
    if window.floats and type(x1) is type(y1) is type(x2) is type(y2) is float:
        xmin, ymin, xmax, ymax = window.bounds
        if _certified_plain_reject(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
            return None
    grazing, ends = _clip_ints(x1, y1, x2, y2, window)
    if grazing:
        return GRAZING
    if ends is None:
        return None
    x1n, y1n, d1, x2n, y2n, d2 = ends
    return x1n / d1, y1n / d1, x2n / d2, y2n / d2
