"""Seven rectangle line clippers behind one shared signature.

Each algorithm is one coordinate kernel over eight floats,
``(x1, y1, x2, y2, xmin, ymin, xmax, ymax) -> (x1, y1, x2, y2) | None``,
registered in ``KERNELS`` under its ``AlgorithmId``.  The benchmark and
verification loops call the kernels directly; ``clip`` is the typed
entry point over the same kernels.

All clippers agree on boundary-inclusive containment and on the
degenerate-segment convention: a point segment is accepted unchanged iff
it lies in the closed window.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from ..geom import REJECTED, ClipResult, ClipWindow, Point2, Segment
from . import (
    cohen_sutherland,
    cyrus_beck,
    kwc,
    liang_barsky,
    nicholl_lee_nicholl,
    proposed,
    skala,
)
from .skala import EDGE_TABLE

__all__ = ["AlgorithmId", "KERNELS", "clip", "EDGE_TABLE"]

CoordKernel = Callable[..., Optional[tuple]]


class AlgorithmId(enum.Enum):
    """Benchmarked algorithm set; values are the fixed report spellings and
    member order is the column order of every report."""

    COHEN_SUTHERLAND = "CS"
    LIANG_BARSKY = "LB"
    CYRUS_BECK = "CB"
    NICHOLL_LEE_NICHOLL = "NLN"
    SKALA = "Skala"
    KWC = "KWC"
    PROPOSED = "Proposed"


KERNELS: dict[AlgorithmId, CoordKernel] = {
    AlgorithmId.COHEN_SUTHERLAND: cohen_sutherland.clip_coords,
    AlgorithmId.LIANG_BARSKY: liang_barsky.clip_coords,
    AlgorithmId.CYRUS_BECK: cyrus_beck.clip_coords,
    AlgorithmId.NICHOLL_LEE_NICHOLL: nicholl_lee_nicholl.clip_coords,
    AlgorithmId.SKALA: skala.clip_coords,
    AlgorithmId.KWC: kwc.clip_coords,
    AlgorithmId.PROPOSED: proposed.clip_coords,
}


def clip(algorithm: AlgorithmId, seg: Segment, window: ClipWindow) -> ClipResult:
    """Clip ``seg`` to ``window`` with the kernel of ``algorithm``."""
    r = KERNELS[algorithm](*seg.coords(), *window.bounds())
    if r is None:
        return REJECTED
    x1, y1, x2, y2 = r
    return ClipResult(Segment(Point2(x1, y1), Point2(x2, y2)))
