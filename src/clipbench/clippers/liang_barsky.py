"""Parametric clipper over P(t) = p1 + t * (p2 - p1), t in [0, 1].

Each window edge contributes one (p, q) inequality p*t <= q that tightens
the parameter interval; an edge-parallel line (p == 0) rejects immediately
iff the line lies outside that edge, otherwise imposes no constraint.
"""

from __future__ import annotations

__all__ = ["clip_coords"]


def _interval(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    dx = x2 - x1
    dy = y2 - y1
    u1 = 0.0
    u2 = 1.0
    for p, q in (
        (-dx, x1 - xmin),
        (dx, xmax - x1),
        (-dy, y1 - ymin),
        (dy, ymax - y1),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                if r > u2:
                    return None
                if r > u1:
                    u1 = r
            else:
                if r < u1:
                    return None
                if r < u2:
                    u2 = r
    return u1, u2


def clip_coords(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    iv = _interval(x1, y1, x2, y2, xmin, ymin, xmax, ymax)
    if iv is None:
        return None
    u1, u2 = iv
    dx = x2 - x1
    dy = y2 - y1
    if u1 > 0.0:
        nx1 = x1 + u1 * dx
        ny1 = y1 + u1 * dy
    else:
        nx1, ny1 = x1, y1
    if u2 < 1.0:
        nx2 = x1 + u2 * dx
        ny2 = y1 + u2 * dy
    else:
        nx2, ny2 = x2, y2
    return (nx1, ny1, nx2, ny2)
