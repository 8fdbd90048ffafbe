"""Per-boundary clipper with explicit axis-parallel fast paths.

Point, vertical and horizontal segments are dispatched up front and
resolved by direct interval intersection.  The general case walks the
four boundaries (left, right, bottom, top) in turn: both endpoints
beyond a boundary rejects, a single offending endpoint is moved onto
that boundary using the explicit line equation through the original
endpoints.  A last test, which never fires in exact arithmetic, rejects
when one endpoint lies strictly beyond an x bound and the other on or
beyond it, as Proposed's step 3 does.
"""

from __future__ import annotations

__all__ = ["clip_coords"]


def clip_coords(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    if x1 == x2:
        if y1 == y2:
            if xmin <= x1 <= xmax and ymin <= y1 <= ymax:
                return (x1, y1, x2, y2)
            return None
        # Vertical segment: intersect the y extents.
        if x1 < xmin or x1 > xmax:
            return None
        if y1 < ymin:
            if y2 < ymin:
                return None
            ny1 = ymin
        elif y1 > ymax:
            if y2 > ymax:
                return None
            ny1 = ymax
        else:
            ny1 = y1
        if y2 < ymin:
            ny2 = ymin
        elif y2 > ymax:
            ny2 = ymax
        else:
            ny2 = y2
        return (x1, ny1, x2, ny2)
    if y1 == y2:
        # Horizontal segment: intersect the x extents.
        if y1 < ymin or y1 > ymax:
            return None
        if x1 < xmin:
            if x2 < xmin:
                return None
            nx1 = xmin
        elif x1 > xmax:
            if x2 > xmax:
                return None
            nx1 = xmax
        else:
            nx1 = x1
        if x2 < xmin:
            nx2 = xmin
        elif x2 > xmax:
            nx2 = xmax
        else:
            nx2 = x2
        return (nx1, y1, nx2, y2)

    # General case.  (ax, ay) and (bx, by) are the clipped endpoints; every
    # crossing is taken on the line through the original ones, which mirrors
    # exactly.  The denominators are nonzero because x1 != x2 and y1 != y2.
    out1 = x1 < xmin
    out2 = x2 < xmin
    if out1 and out2:
        return None
    ax, ay = x1, y1
    bx, by = x2, y2
    if out1:
        ay = y1 + (y2 - y1) * (xmin - x1) / (x2 - x1)
        ax = xmin
    elif out2:
        by = y1 + (y2 - y1) * (xmin - x1) / (x2 - x1)
        bx = xmin

    out1 = ax > xmax
    out2 = bx > xmax
    if out1 and out2:
        return None
    if out1:
        ay = y1 + (y2 - y1) * (xmax - x1) / (x2 - x1)
        ax = xmax
    elif out2:
        by = y1 + (y2 - y1) * (xmax - x1) / (x2 - x1)
        bx = xmax

    out1 = ay < ymin
    out2 = by < ymin
    if out1 and out2:
        return None
    if out1:
        ax = x1 + (x2 - x1) * (ymin - y1) / (y2 - y1)
        ay = ymin
    elif out2:
        bx = x1 + (x2 - x1) * (ymin - y1) / (y2 - y1)
        by = ymin

    out1 = ay > ymax
    out2 = by > ymax
    if out1 and out2:
        return None
    if out1:
        ax = x1 + (x2 - x1) * (ymax - y1) / (y2 - y1)
        ay = ymax
    elif out2:
        bx = x1 + (x2 - x1) * (ymax - y1) / (y2 - y1)
        by = ymax

    # A y move can round an x beyond a bound the walk has passed.
    if ax < xmin:
        if bx <= xmin:
            return None
    elif ax > xmax:
        if bx >= xmax:
            return None
    elif bx < xmin:
        if ax <= xmin:
            return None
    elif bx > xmax:
        if ax >= xmax:
            return None
    return (ax, ay, bx, by)
