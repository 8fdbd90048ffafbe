"""Two-pass endpoint-clamp clipper.

Structure, in order: (1) reject when both endpoints sit strictly beyond
the same window side; (2) for each endpoint, clamp x against the
vertical bounds recomputing y from the line equation, then clamp the
possibly updated y against the horizontal bounds recomputing x, with
the line equation always anchored at the original endpoints; (3) reject
when both clamped points still sit beyond the same vertical bound,
otherwise accept.

Step 3 rejects when one clamped point lies strictly beyond an x bound
and the other lies on or beyond the same bound, in either order.  In
exact arithmetic this is the published step 3, which asks for both
points strictly beyond.  The two rules differ only when one point is
strictly beyond a bound and the other exactly on it, and in exact
arithmetic that pair never occurs, or the published rule would accept
a clip with a point outside the window.  The non-strict half is for
rounding.  A segment that misses the window by an ULP can have one
point clamped onto an x bound with its y rounded onto a y bound, while
the other point's y clamp lands its x beyond that same x bound: the
strict rule accepted such a result, one of them 50 units outside a
200 x 150 window.

The rejection gates guarantee every slope ratio has a nonzero
denominator: a vertical segment that reaches step 2 cannot violate the
x bounds and a horizontal one cannot violate the y bounds.
"""

from __future__ import annotations

__all__ = ["clip_coords"]


def clip_coords(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    if x1 < xmin:
        if x2 < xmin:
            return None
    elif x1 > xmax:
        if x2 > xmax:
            return None
    if y1 < ymin:
        if y2 < ymin:
            return None
    elif y1 > ymax:
        if y2 > ymax:
            return None

    nx1, ny1 = x1, y1
    if nx1 < xmin:
        nx1 = xmin
        ny1 = (y2 - y1) / (x2 - x1) * (xmin - x1) + y1
    elif nx1 > xmax:
        nx1 = xmax
        ny1 = (y2 - y1) / (x2 - x1) * (xmax - x1) + y1
    if ny1 < ymin:
        ny1 = ymin
        nx1 = (x2 - x1) / (y2 - y1) * (ymin - y1) + x1
    elif ny1 > ymax:
        ny1 = ymax
        nx1 = (x2 - x1) / (y2 - y1) * (ymax - y1) + x1

    nx2, ny2 = x2, y2
    if nx2 < xmin:
        nx2 = xmin
        ny2 = (y2 - y1) / (x2 - x1) * (xmin - x1) + y1
    elif nx2 > xmax:
        nx2 = xmax
        ny2 = (y2 - y1) / (x2 - x1) * (xmax - x1) + y1
    if ny2 < ymin:
        ny2 = ymin
        nx2 = (x2 - x1) / (y2 - y1) * (ymin - y1) + x1
    elif ny2 > ymax:
        ny2 = ymax
        nx2 = (x2 - x1) / (y2 - y1) * (ymax - y1) + x1

    if nx1 < xmin:
        if nx2 <= xmin:
            return None
    elif nx1 > xmax:
        if nx2 >= xmax:
            return None
    elif nx2 < xmin:
        if nx1 <= xmin:
            return None
    elif nx2 > xmax:
        if nx1 >= xmax:
            return None
    return (nx1, ny1, nx2, ny2)
