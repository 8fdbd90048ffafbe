"""Outcode-based clipper.

Each endpoint gets a 4-bit region code; both codes zero means trivial
accept, a nonzero bitwise AND means trivial reject, and otherwise one
out-of-window endpoint is moved onto a violated boundary and the loop
repeats.  Each endpoint is moved onto each boundary at most once, so
the loop ends.

Bit assignment: LEFT = 1, RIGHT = 2, BOTTOM = 4, TOP = 8.  Boundary
points code to 0.
"""

from __future__ import annotations

__all__ = ["clip_coords"]

LEFT = 1
RIGHT = 2
BOTTOM = 4
TOP = 8


def _outcode(x, y, xmin, ymin, xmax, ymax):
    code = 0
    if x < xmin:
        code = 1
    elif x > xmax:
        code = 2
    if y < ymin:
        code |= 4
    elif y > ymax:
        code |= 8
    return code


def clip_coords(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    code1 = _outcode(x1, y1, xmin, ymin, xmax, ymax)
    code2 = _outcode(x2, y2, xmin, ymin, xmax, ymax)
    # The boundaries each endpoint may still be moved onto.  Regaining the
    # bit of one it was moved onto is rounding; dropping it stops an endpoint
    # on a line through a window corner alternating between its boundaries.
    keep1 = keep2 = 15
    while True:
        if not (code1 | code2):
            return (x1, y1, x2, y2)
        if code1 & code2:
            return None
        code = code1 if code1 else code2
        # The tested bit guarantees the denominator below is nonzero:
        # the other endpoint cannot share the region or the AND test
        # would already have rejected.
        if code & TOP:
            x = x1 + (x2 - x1) * (ymax - y1) / (y2 - y1)
            y = ymax
        elif code & BOTTOM:
            x = x1 + (x2 - x1) * (ymin - y1) / (y2 - y1)
            y = ymin
        elif code & RIGHT:
            y = y1 + (y2 - y1) * (xmax - x1) / (x2 - x1)
            x = xmax
        else:
            y = y1 + (y2 - y1) * (xmin - x1) / (x2 - x1)
            x = xmin
        bit = code & 12 or code  # the boundary tested: TOP or BOTTOM first
        if code == code1:
            x1, y1 = x, y
            keep1 ^= bit
            code1 = _outcode(x1, y1, xmin, ymin, xmax, ymax) & keep1
        else:
            x2, y2 = x, y
            keep2 ^= bit
            code2 = _outcode(x2, y2, xmin, ymin, xmax, ymax) & keep2
