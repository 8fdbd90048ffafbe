"""Seven rectangle line clippers behind one shared signature.

Each algorithm is one coordinate kernel over eight floats,
``(x1, y1, x2, y2, xmin, ymin, xmax, ymax) -> (x1, y1, x2, y2) | None``,
registered in ``KERNELS`` under its ``AlgorithmId``.  The benchmark and
verification loops call the kernels directly; ``clip`` is the typed
entry point over the same kernels, with the same shape: a ``Segment``
in, a ``Segment`` or None out.

All clippers agree on boundary-inclusive containment and on the
degenerate-segment convention: a point segment is accepted unchanged iff
it lies in the closed window.
"""

from __future__ import annotations

import enum
from collections.abc import Callable

from ..geom import ClipWindow, Segment, require_window_in_space
from . import (
    cohen_sutherland,
    cyrus_beck,
    kwc,
    liang_barsky,
    nicholl_lee_nicholl,
    proposed,
    skala,
)

__all__ = ["AlgorithmId", "KERNELS", "clip"]


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


KERNELS: dict[AlgorithmId, Callable[..., tuple | None]] = {
    AlgorithmId.COHEN_SUTHERLAND: cohen_sutherland.clip_coords,
    AlgorithmId.LIANG_BARSKY: liang_barsky.clip_coords,
    AlgorithmId.CYRUS_BECK: cyrus_beck.clip_coords,
    AlgorithmId.NICHOLL_LEE_NICHOLL: nicholl_lee_nicholl.clip_coords,
    AlgorithmId.SKALA: skala.clip_coords,
    AlgorithmId.KWC: kwc.clip_coords,
    AlgorithmId.PROPOSED: proposed.clip_coords,
}


def clip(algorithm: AlgorithmId | str, seg: Segment, window: ClipWindow) -> Segment | None:
    """Clip ``seg`` to ``window`` with the kernel of ``algorithm``, an
    ``AlgorithmId`` or its report spelling (``"Proposed"``): the retained
    part as a ``Segment``, or None when the kernel rejects.

    Raises ValueError for a spelling that names no algorithm, for a bad
    segment or window, and for a pair outside the kernels' exact domain:
    the box around both must pass the check that ``bench`` and ``verify``
    make of their generation space.
    """
    algorithm = AlgorithmId(algorithm)
    window = ClipWindow(*window)
    seg = Segment(*seg)
    x1, y1, x2, y2 = seg
    xmin, ymin, xmax, ymax = window
    box = ClipWindow(min(x1, x2, xmin), min(y1, y2, ymin), max(x1, x2, xmax), max(y1, y2, ymax))
    require_window_in_space(window, box, "segment-and-window box")
    r = KERNELS[algorithm](*seg, *window)
    return None if r is None else Segment(*r)
