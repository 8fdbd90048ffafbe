"""Geometric primitives shared by every clipping algorithm.

Coordinates are IEEE-754 doubles.  Containment against the clip window is
boundary-inclusive everywhere so that all clippers share one semantics:
a point exactly on an edge or corner counts as inside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Point2",
    "Segment",
    "ClipWindow",
    "ClipResult",
    "REJECTED",
    "require_window_in_space",
]


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True, slots=True)
class Point2:
    """A point in the plane. Both coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite("x", self.x)
        _require_finite("y", self.y)


@dataclass(frozen=True, slots=True)
class Segment:
    """Directed segment from p1 to p2. Degenerate segments (p1 == p2) are legal."""

    p1: Point2
    p2: Point2

    @classmethod
    def of(cls, x1: float, y1: float, x2: float, y2: float) -> "Segment":
        return cls(Point2(x1, y1), Point2(x2, y2))

    def coords(self) -> tuple[float, float, float, float]:
        return (self.p1.x, self.p1.y, self.p2.x, self.p2.y)


@dataclass(frozen=True, slots=True)
class ClipWindow:
    """Axis-aligned clip rectangle with strictly ordered, finite bounds.

    Callers must pass bounds in ascending order; nothing is swapped
    silently because that tends to hide caller bugs.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        for name in ("xmin", "ymin", "xmax", "ymax"):
            _require_finite(name, getattr(self, name))
        if not (self.xmin < self.xmax):
            raise ValueError(f"xmin must be < xmax, got {self.xmin} >= {self.xmax}")
        if not (self.ymin < self.ymax):
            raise ValueError(f"ymin must be < ymax, got {self.ymin} >= {self.ymax}")

    def bounds(self) -> tuple[float, float, float, float]:
        return (self.xmin, self.ymin, self.xmax, self.ymax)


@dataclass(frozen=True, slots=True)
class ClipResult:
    """Outcome of clipping a segment: the retained part, or rejection."""

    segment: Segment | None = None

    @property
    def accepted(self) -> bool:
        return self.segment is not None


REJECTED = ClipResult(None)


def require_window_in_space(window: ClipWindow, space: ClipWindow) -> None:
    """Raise ValueError unless the clip window lies inside the generation
    space (boundary-inclusive) and the space's width and height are
    finite doubles, as the stream's coordinate mapping needs."""
    w, s = window, space
    if not (math.isfinite(s.xmax - s.xmin) and math.isfinite(s.ymax - s.ymin)):
        raise ValueError("generation space width and height must be finite")
    if not (s.xmin <= w.xmin and w.xmax <= s.xmax and s.ymin <= w.ymin and w.ymax <= s.ymax):
        raise ValueError("window must be contained in the generation space")
