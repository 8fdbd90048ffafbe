"""Geometric primitives shared by every clipping algorithm.

Coordinates are IEEE-754 doubles.  Containment against the clip window is
boundary-inclusive everywhere so that all clippers share one semantics:
a point exactly on an edge or corner counts as inside.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "Segment",
    "ClipWindow",
    "require_window_in_space",
]


def _require_finite(name: str, value: float) -> float:
    """``value`` as a double.  A non-number (a str, None or a complex)
    raises TypeError, and a value that is not finite ValueError."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def _checked_make(cls, iterable):
    # namedtuple's own _make, which _replace calls, skips __new__ and its checks.
    return cls(*iterable)


class Segment(namedtuple("Segment", "x1 y1 x2 y2")):
    """Directed segment from (x1, y1) to (x2, y2), the kernels' own form.

    Every coordinate must be finite, and is stored as a double.
    Degenerate segments, where both endpoints are equal, are legal.
    """

    __slots__ = ()

    def __new__(cls, x1: float, y1: float, x2: float, y2: float) -> "Segment":
        return super().__new__(cls, *map(_require_finite, cls._fields, (x1, y1, x2, y2)))

    _make = classmethod(_checked_make)


class ClipWindow(namedtuple("ClipWindow", "xmin ymin xmax ymax")):
    """Axis-aligned clip rectangle with strictly ordered, finite bounds,
    each stored as a double.

    Callers must pass bounds in ascending order; nothing is swapped
    silently because that tends to hide caller bugs.  The order is
    checked on the doubles.
    """

    __slots__ = ()

    def __new__(cls, xmin: float, ymin: float, xmax: float, ymax: float) -> "ClipWindow":
        self = super().__new__(cls, *map(_require_finite, cls._fields, (xmin, ymin, xmax, ymax)))
        xmin, ymin, xmax, ymax = self
        if not (xmin < xmax):
            raise ValueError(f"xmin must be < xmax, got {xmin} >= {xmax}")
        if not (ymin < ymax):
            raise ValueError(f"ymin must be < ymax, got {ymin} >= {ymax}")
        return self

    _make = classmethod(_checked_make)


# The kernels' common exact domain.  CS, NLN, Skala and KWC multiply two
# coordinate differences before they divide.  With the space's width and
# height at most 2^511, a sum of two such products stays below 2^1024 and
# cannot overflow.  Scaled by 2^-515, the default 200 x 150 window
# (height 2^-507.8) is the first at which a kernel's results stop scaling
# exactly, as products underflow; a window at least 2^-500 wide and high
# keeps a margin of about 2^8 above that.
_SPACE_EXTENT_MAX = 2.0**511
_WINDOW_EXTENT_MIN = 2.0**-500


def require_window_in_space(window: ClipWindow, space: ClipWindow,
                            space_name: str = "generation space") -> None:
    """Raise ValueError unless the clip window lies inside the generation
    space (boundary-inclusive), the space's width and height are finite
    doubles, as the stream's coordinate mapping needs, and both lie in
    the kernels' exact domain: the space at most 2^511 wide and high, the
    window at least 2^-500.  ``space_name`` names the space in messages."""
    w, s = window, space
    if not (math.isfinite(s.xmax - s.xmin) and math.isfinite(s.ymax - s.ymin)):
        raise ValueError(f"{space_name} width and height must be finite")
    if max(s.xmax - s.xmin, s.ymax - s.ymin) > _SPACE_EXTENT_MAX:
        raise ValueError(
            f"{space_name} width and height must be at most 2**511, the kernels' exact domain")
    if min(w.xmax - w.xmin, w.ymax - w.ymin) < _WINDOW_EXTENT_MIN:
        raise ValueError(
            "window width and height must be at least 2**-500, the kernels' exact domain")
    if not (s.xmin <= w.xmin and w.xmax <= s.xmax and s.ymin <= w.ymin and w.ymax <= s.ymax):
        raise ValueError("window must be contained in the generation space")
