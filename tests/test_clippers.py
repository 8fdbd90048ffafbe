import math

import pytest
from hypothesis import given, settings, strategies as st

from clipbench.clippers import EDGE_TABLE, KERNELS, AlgorithmId, clip
from clipbench.geom import ClipWindow, Segment

W = ClipWindow(-100, -75, 100, 75)
ALGOS = list(AlgorithmId)

SHARED_EXAMPLES = [
    ((0, 0, 50, 50), (0, 0, 50, 50)),          # fully inside, unchanged
    ((-200, 10, -150, -20), None),             # both endpoints left of the window
    ((-200, -200, 200, 200), (-75, -75, 75, 75)),
    ((-200, 0, 0, 200), None),                 # passes above the top-left corner
    ((-200, 0, 200, 80), (-100, 20, 100, 60)),
]


def run(algo, seg_coords, window=W):
    seg = Segment.of(*seg_coords)
    return clip(algo, seg, window)


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
@pytest.mark.parametrize("seg,expected", SHARED_EXAMPLES)
def test_shared_examples(algo, seg, expected):
    result = run(algo, seg)
    if expected is None:
        assert not result.accepted
    else:
        assert result.accepted
        got = result.segment.coords()
        assert got == pytest.approx(expected, abs=1e-9)


def test_proposed_double_clamp_path():
    # x clamp lands at (-100, 100), the y clamp then pulls it to (-75, 75).
    result = clip(AlgorithmId.PROPOSED, Segment.of(-200, 200, 0, 0), W)
    assert result.segment.coords() == pytest.approx((-75, 75, 0, 0), abs=1e-9)


def test_proposed_vertical_line_never_divides():
    result = clip(AlgorithmId.PROPOSED, Segment.of(0, -1000, 0, 1000), W)
    assert result.segment.coords() == pytest.approx((0, -75, 0, 75), abs=1e-9)


def test_proposed_horizontal_line_never_divides():
    result = clip(AlgorithmId.PROPOSED, Segment.of(-1000, 10, 1000, 10), W)
    assert result.segment.coords() == pytest.approx((-100, 10, 100, 10), abs=1e-9)


def test_cohen_sutherland_trivial_reject_by_and():
    # Both endpoints lie left of and above the window: their region codes
    # share the LEFT and TOP bits, so the AND test rejects at once.
    assert not clip(AlgorithmId.COHEN_SUTHERLAND, Segment.of(-150, 80, -150, 90), W).accepted


def test_edge_table_shape():
    assert len(EDGE_TABLE) == 16
    assert EDGE_TABLE[0b0000] == ()
    assert EDGE_TABLE[0b1111] == ()
    # Alternating corner signs cannot come from a straight line.
    assert EDGE_TABLE[0b0101] == ()
    assert EDGE_TABLE[0b1010] == ()
    for mask in range(16):
        if mask not in (0b0000, 0b1111, 0b0101, 0b1010):
            assert len(EDGE_TABLE[mask]) == 2


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
def test_degenerate_point_convention(algo):
    inside = [(0, 0), (-100, -75), (100, -75), (100, 75), (-100, 75), (-100, 0), (0, 75)]
    outside = [(-100.5, 0), (0, 75.5), (300, 300), (-100.0001, -75.0001)]
    for x, y in inside:
        result = run(algo, (x, y, x, y))
        assert result.accepted
        assert result.segment.coords() == (x, y, x, y)
    for x, y in outside:
        assert not run(algo, (x, y, x, y)).accepted


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
def test_corner_touching_segment_is_accepted(algo):
    # Enters exactly at the bottom-left corner and ends inside.
    result = run(algo, (-200, -175, 0, 25))
    assert result.accepted
    got = result.segment.coords()
    assert got == pytest.approx((-100, -75, 0, 25), abs=1e-9)


def test_skala_boundary_collinear_is_orientation_independent():
    # Segments lying exactly on a window edge line once classified
    # differently depending on direction and mirroring; the on-line
    # corners must join the crossing arc regardless of orientation.
    from clipbench.clippers.skala import clip_coords as skala

    win = (0.0, 0.0, 1.0, 1.0)
    for seg in [
        (0.0, 0.0, 0.0, 1.0),   # left edge, upward
        (0.0, 1.0, 0.0, 0.0),   # left edge, downward
        (1.0, 0.0, 1.0, 1.0),   # right edge
        (0.0, 0.0, 1.0, 0.0),   # bottom edge
        (1.0, 1.0, 0.0, 1.0),   # top edge, reversed
    ]:
        res = skala(*seg, *win)
        assert res == seg, seg
        rev = (seg[2], seg[3], seg[0], seg[1])
        assert skala(*rev, *win) == rev, seg


def test_dispatch_covers_every_algorithm():
    assert set(KERNELS) == set(AlgorithmId)
    seg = Segment.of(-200, -200, 200, 200)
    for algo in AlgorithmId:
        assert clip(algo, seg, W).segment.coords() == pytest.approx(
            (-75, -75, 75, 75), abs=1e-9
        )


# ---------------------------------------------------------------------------
# Property tests: containment, collinearity, parametric ordering, reflection
# equivariance and totality at benchmark scale.  Coordinates are quantized
# to a micro-unit grid: that makes exact boundary collisions common (the
# interesting cases) while keeping nonzero differences bounded away from
# the denormal range where slope ratios overflow for any formulation.

coords = st.floats(-2000, 2000, allow_nan=False, allow_infinity=False).map(
    lambda v: round(v, 6)
)
segments = st.tuples(coords, coords, coords, coords)


@st.composite
def windows(draw):
    x0 = round(draw(st.floats(-500, 400, allow_nan=False, allow_infinity=False)), 6)
    y0 = round(draw(st.floats(-500, 400, allow_nan=False, allow_infinity=False)), 6)
    wsize = round(draw(st.floats(1, 900)), 6)
    hsize = round(draw(st.floats(1, 900)), 6)
    return ClipWindow(x0, y0, x0 + wsize, y0 + hsize)


def _param_of(px, py, x1, y1, dx, dy):
    # Dominant-axis parameter; robust even for subnormal directions
    # where dx*dx + dy*dy would underflow.
    if abs(dx) >= abs(dy):
        return (px - x1) / dx
    return (py - y1) / dy


def _check_result(res, seg, window):
    x1, y1, x2, y2 = seg
    ax, ay, bx, by = res
    for v in res:
        assert math.isfinite(v)
    pad = 1e-9 * max(1.0, window.xmax - window.xmin, window.ymax - window.ymin)
    assert window.xmin - pad <= ax <= window.xmax + pad
    assert window.ymin - pad <= ay <= window.ymax + pad
    assert window.xmin - pad <= bx <= window.xmax + pad
    assert window.ymin - pad <= by <= window.ymax + pad
    dx = x2 - x1
    dy = y2 - y1
    if dx == 0 and dy == 0:
        assert (ax, ay, bx, by) == (x1, y1, x1, y1)
        return
    norm = math.hypot(dx, dy)
    scale = max(1.0, abs(x1), abs(y1), abs(x2), abs(y2))
    for px, py in ((ax, ay), (bx, by)):
        assert abs(dy * (px - x1) - dx * (py - y1)) / norm <= 1e-6 * scale
    ta = _param_of(ax, ay, x1, y1, dx, dy)
    tb = _param_of(bx, by, x1, y1, dx, dy)
    assert -1e-9 <= ta <= 1 + 1e-9
    assert -1e-9 <= tb <= 1 + 1e-9
    assert ta <= tb + 1e-9


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
@settings(max_examples=250, deadline=None)
@given(seg=segments, window=windows())
def test_accepted_results_are_contained_collinear_ordered(algo, seg, window):
    res = KERNELS[algo](*seg, *window.bounds())
    if res is not None:
        _check_result(res, seg, window)


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
@settings(max_examples=250, deadline=None)
@given(seg=segments, window=windows())
def test_reflection_equivariance(algo, seg, window):
    kernel = KERNELS[algo]
    x1, y1, x2, y2 = seg
    res = kernel(*seg, *window.bounds())
    # Mirror across the x axis.
    mx = kernel(
        x1, -y1, x2, -y2, window.xmin, -window.ymax, window.xmax, -window.ymin
    )
    # Mirror across the y axis.
    my = kernel(
        -x1, y1, -x2, y2, -window.xmax, window.ymin, -window.xmin, window.ymax
    )
    if res is None:
        assert mx is None and my is None
    else:
        ax, ay, bx, by = res
        assert mx == pytest.approx((ax, -ay, bx, -by), abs=1e-9)
        assert my == pytest.approx((-ax, ay, -bx, by), abs=1e-9)
