"""Corner-classification clipper over homogeneous line coordinates.

The segment's supporting line (a, b, c) with ax + by + c = 0 comes from
the cross product of the endpoints lifted to (x, y, 1).  The line is
evaluated with the origin moved to the first endpoint, as
a*(x - x1) + b*(y - y1): the same function, without forming
c = x1*y2 - x2*y1, which cancels catastrophically far from the origin.
The four window corners are classified by the sign of that value into a
4-bit mask, and a 16-entry table derived from that corner-sign
enumeration names the at most two window edges the infinite line
crosses.  The two edge intersections form the line's span inside the
window, which is finally intersected with the segment's own extent.

Corners lying exactly on the line classify against the strict majority,
so they always join the crossing arc.  That choice is independent of the
line's orientation, which keeps outcomes stable under segment reversal
and axis mirroring even for tangent and boundary-collinear inputs.

Masks 0b0000 and 0b1111 mean the line misses the window.  The two
alternating masks 0b0101 and 0b1010 are unrealizable for a straight
line against a rectangle (the corner values of an affine function
satisfy f(c0) + f(c2) == f(c1) + f(c3), which forbids strictly
alternating signs); the table maps them to the empty entry.
"""

from __future__ import annotations

__all__ = ["EDGE_TABLE", "clip_coords"]


def _build_edge_table():
    # Corners in cyclic order 0..3: (xmin,ymin), (xmax,ymin), (xmax,ymax),
    # (xmin,ymax); edge k joins corner k to corner (k+1) % 4, so edges are
    # 0 bottom, 1 right, 2 top, 3 left.  The line crosses edge k exactly
    # when the mask bits of its two corners differ.
    table = []
    for mask in range(16):
        bits = [(mask >> i) & 1 for i in range(4)]
        edges = tuple(k for k in range(4) if bits[k] != bits[(k + 1) % 4])
        table.append(edges if len(edges) == 2 else ())
    return tuple(table)


EDGE_TABLE = _build_edge_table()


def _edge_point(edge, x1, y1, a, b, xmin, ymin, xmax, ymax):
    # The table only selects an edge when the corresponding denominator
    # is nonzero: a sign change across a horizontal edge needs a != 0,
    # across a vertical edge b != 0.
    if edge == 0:
        return x1 - b * (ymin - y1) / a, ymin
    if edge == 1:
        return xmax, y1 - a * (xmax - x1) / b
    if edge == 2:
        return x1 - b * (ymax - y1) / a, ymax
    return xmin, y1 - a * (xmin - x1) / b


def clip_coords(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    if x1 == x2 and y1 == y2:
        if xmin <= x1 <= xmax and ymin <= y1 <= ymax:
            return (x1, y1, x2, y2)
        return None
    a = y1 - y2
    b = x2 - x1
    ex0 = xmin - x1
    ex1 = xmax - x1
    ey0 = ymin - y1
    ey1 = ymax - y1
    f0 = a * ex0 + b * ey0
    f1 = a * ex1 + b * ey0
    f2 = a * ex1 + b * ey1
    f3 = a * ex0 + b * ey1
    mask = 0
    if f0 > 0.0:
        mask |= 1
    if f1 > 0.0:
        mask |= 2
    if f2 > 0.0:
        mask |= 4
    if f3 > 0.0:
        mask |= 8
    if f0 == 0.0 or f1 == 0.0 or f2 == 0.0 or f3 == 0.0:
        # On-line corners join the arc opposite the strict majority; with
        # no strictly negative corner they stay on the zero side, which
        # is already the minority arc.
        if f0 < 0.0 or f1 < 0.0 or f2 < 0.0 or f3 < 0.0:
            if f0 == 0.0:
                mask |= 1
            if f1 == 0.0:
                mask |= 2
            if f2 == 0.0:
                mask |= 4
            if f3 == 0.0:
                mask |= 8
    edges = EDGE_TABLE[mask]
    if not edges:
        return None
    ax, ay = _edge_point(edges[0], x1, y1, a, b, xmin, ymin, xmax, ymax)
    bx, by = _edge_point(edges[1], x1, y1, a, b, xmin, ymin, xmax, ymax)
    if f0 == 0.0 or f1 == 0.0 or f2 == 0.0 or f3 == 0.0:
        # An on-line corner of a selected edge is taken exactly: the edge's
        # rounded crossing differs between the corner's two edges.
        fs = (f0, f1, f2, f3)
        corners = ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax))
        for k in (edges[0], (edges[0] + 1) % 4):
            if fs[k] == 0.0:
                ax, ay = corners[k]
        for k in (edges[1], (edges[1] + 1) % 4):
            if fs[k] == 0.0:
                bx, by = corners[k]
    # Clamp the line's window span to the segment extent, parameterizing
    # along the dominant direction component.
    dx = b
    dy = -a
    if abs(dx) >= abs(dy):
        ta = (ax - x1) / dx
        tb = (bx - x1) / dx
    else:
        ta = (ay - y1) / dy
        tb = (by - y1) / dy
    if ta > tb:
        ta, tb = tb, ta
        ax, ay, bx, by = bx, by, ax, ay
    if tb < 0.0 or ta > 1.0:
        return None
    if ta <= 0.0:
        ox1, oy1 = x1, y1
    else:
        ox1, oy1 = ax, ay
    if tb >= 1.0:
        ox2, oy2 = x2, y2
    else:
        ox2, oy2 = bx, by
    return (ox1, oy1, ox2, oy2)
