import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from clipbench.bench import _materialize
from clipbench.clippers import KERNELS, AlgorithmId, clip
from clipbench.clippers.skala import EDGE_TABLE
from clipbench.geom import ClipWindow, Segment
from clipbench.verify import _accept_fault, adversarial_segments

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
    return clip(algo, Segment(*seg_coords), window)


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
@pytest.mark.parametrize("seg,expected", SHARED_EXAMPLES)
def test_shared_examples(algo, seg, expected):
    result = run(algo, seg)
    if expected is None:
        assert result is None
    else:
        assert result == pytest.approx(expected, abs=1e-9)


def test_proposed_double_clamp_path():
    # x clamp lands at (-100, 100), the y clamp then pulls it to (-75, 75).
    result = clip(AlgorithmId.PROPOSED, Segment(-200, 200, 0, 0), W)
    assert result == pytest.approx((-75, 75, 0, 0), abs=1e-9)


def test_proposed_vertical_line_never_divides():
    result = clip(AlgorithmId.PROPOSED, Segment(0, -1000, 0, 1000), W)
    assert result == pytest.approx((0, -75, 0, 75), abs=1e-9)


def test_proposed_horizontal_line_never_divides():
    result = clip(AlgorithmId.PROPOSED, Segment(-1000, 10, 1000, 10), W)
    assert result == pytest.approx((-100, 10, 100, 10), abs=1e-9)


def test_cohen_sutherland_trivial_reject_by_and():
    # Both endpoints lie left of and above the window: their region codes
    # share the LEFT and TOP bits, so the AND test rejects at once.
    assert clip(AlgorithmId.COHEN_SUTHERLAND, Segment(-150, 80, -150, 90), W) is None


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
        assert run(algo, (x, y, x, y)) == (x, y, x, y)
    for x, y in outside:
        assert run(algo, (x, y, x, y)) is None


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
def test_corner_touching_segment_is_accepted(algo):
    # Enters exactly at the bottom-left corner and ends inside.
    result = run(algo, (-200, -175, 0, 25))
    assert result == pytest.approx((-100, -75, 0, 25), abs=1e-9)


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
    # clip is exactly the kernel: the same rejects, and every accept's
    # fields are the kernel's result bit for bit.
    assert set(KERNELS) == set(AlgorithmId)
    window = ClipWindow(-100.0, -75.0, 100.0, 75.0)
    stream, _ = _materialize(1, ClipWindow(-960.0, -720.0, 960.0, 720.0), 2_000)
    for algo in AlgorithmId:
        # The records hold doubles, so int, Fraction and Decimal forms of
        # the segment and window give the float form's result bit for
        # bit; clip takes the report spelling of an algorithm too.
        want = clip(algo, Segment(-200.0, -200.0, 200.0, 200.0), window)
        assert want == pytest.approx((-75, -75, 75, 75), abs=1e-9)
        for form, name in ((int, algo), (Fraction, algo), (Decimal, algo), (int, algo.value)):
            got = clip(name, Segment(*map(form, (-200, -200, 200, 200))), ClipWindow(*map(form, W)))
            assert all(type(v) is float for v in got), (algo, form, got)
            assert [v.hex() for v in got] == [v.hex() for v in want], (algo, form)
        for s in stream + adversarial_segments(window):
            want = KERNELS[algo](*s, *window)
            got = clip(algo, Segment(*s), window)
            if want is None:
                assert got is None, (algo, s)
            else:
                assert type(got) is Segment, (algo, s)
                assert [v.hex() for v in got] == [v.hex() for v in want], (algo, s)
    with pytest.raises(ValueError, match="'proposed' is not a valid AlgorithmId"):
        clip("proposed", Segment(0.0, 0.0, 1.0, 1.0), window)


def test_clip_refuses_a_pair_outside_the_exact_domain():
    # The box around segment and window is held to a generation space's
    # bounds: admitted at exactly 2^511 wide or high, refused one ULP past.
    window = ClipWindow(0.0, 0.0, 1.0, 1.0)
    edge = 2.0**511
    for seg in ((0.0, 0.5, edge, 0.5), (0.5, edge, 0.5, 0.0)):
        for algo in ALGOS:
            clip(algo, Segment(*seg), window)
        past = tuple(math.nextafter(v, math.inf) if v == edge else v for v in seg)
        with pytest.raises(ValueError, match=r"segment-and-window box .* exact domain"):
            clip(AlgorithmId.PROPOSED, Segment(*past), window)
    tiny = ClipWindow(0.0, 0.0, 2.0**-501, 2.0**-501)
    with pytest.raises(ValueError, match=r"window width .* exact domain"):
        clip(AlgorithmId.PROPOSED, Segment(0.0, 0.0, 1.0, 1.0), tiny)


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


def _check_result(res, seg, window):
    """Assert the accept contract, ``verify._accept_fault``."""
    fault = _accept_fault(res, seg, window)
    assert fault is None, (fault, seg, res)


@pytest.mark.parametrize("seg, res, fault", [
    ((10, 10, 50, 50), (10, 10, 50, 50), None),  # untouched
    ((-200, 0, 200, 80), (-100, 20, 100, 60), None),  # clipped
    ((10, 10, 10, 10), (10, 10, 10, 10), None),  # a point
    ((200, 0, -200, 0), (100, 0, -100, 0), None),  # reversed
    ((-200, 0, 200, 0), (math.nan, 0, 100, 0), "a coordinate is not finite"),
    ((-200, 0, 200, 0), (-150, 0, 100, 0), "a point lies outside the padded window"),
    ((10, 10, 10, 10), (10, 10, 10, 10.5), "a point segment is not returned as itself"),
    ((-200, 0, 200, 0), (-100, 1, 100, 0), "a point lies off the segment's line"),
    ((-200, 0, 200, 0), (100, 0, -100, 0), "the points are out of the segment's parameter order"),
    ((0, 0, 50, 0), (0, 0, 60, 0), "the points are out of the segment's parameter order"),
], ids=["untouched", "clipped", "point", "reversed", "not-finite", "outside", "moved-point",
        "off-line", "swapped", "past-the-end"])
def test_accept_fault_names_the_one_rule_a_result_breaks(seg, res, fault):
    assert _accept_fault(res, seg, W) == fault


def _check_mirrors(kernel, seg, window, res):
    """Mirrored across either axis, seg and window clip to the mirrored
    ``res`` within 1e-9, or reject where ``res`` is None."""
    x1, y1, x2, y2 = seg
    xmin, ymin, xmax, ymax = window
    mirrors = (
        (kernel(x1, -y1, x2, -y2, xmin, -ymax, xmax, -ymin), 1.0, -1.0),
        (kernel(-x1, y1, -x2, y2, -xmax, ymin, -xmin, ymax), -1.0, 1.0),
    )
    for got, sx, sy in mirrors:
        if res is None:
            assert got is None, (kernel.__module__, seg, got)
        else:
            want = (sx * res[0], sy * res[1], sx * res[2], sy * res[3])
            assert got is not None and all(
                abs(g - w) <= 1e-9 for g, w in zip(got, want)
            ), (kernel.__module__, seg, res, got)


# Lines through a window corner, where the rounded crossings on the
# corner's two boundaries disagree.  KWC used to reject the first case but
# accept its mirror image, CS alternated between the two boundaries of the
# second case's corner forever, and Skala accepted the last two but
# rejected a mirror image.
CORNER_LINES = [
    ((257.0, 257.0, 0.0, 0.0), ClipWindow(1.804688, 0.0, 2.804688, 1.804688)),
    (
        (322.5, 213.5, -56.56666666666666, -165.56666666666666),
        ClipWindow(38.2, -70.8, 324.845642, 395.2),
    ),
    ((689.5, 1592.1, 379.1, 689.5), ClipWindow(-207.0, 22.2, 379.1, 689.5)),
    ((683.0, -705.1, 70.0, -205.330312), ClipWindow(-149.0, -205.330312, 70.0, 550.869688)),
]


def _with_corner_lines(test):
    for seg, window in CORNER_LINES:
        test = example(seg=seg, window=window)(test)
    return test


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
@settings(max_examples=250, deadline=None)
@_with_corner_lines
@given(seg=segments, window=windows())
def test_accepted_results_are_contained_collinear_ordered(algo, seg, window):
    res = KERNELS[algo](*seg, *window)
    if res is not None:
        _check_result(res, seg, window)


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
@settings(max_examples=250, deadline=None)
@_with_corner_lines
@given(seg=segments, window=windows())
def test_reflection_equivariance(algo, seg, window):
    kernel = KERNELS[algo]
    _check_mirrors(kernel, seg, window, kernel(*seg, *window))


# Scaling every input by 2**k is exact in doubles, so each kernel's result
# must scale by 2**k bit for bit, as long as none of its products overflows
# or underflows.  At the default space (|coordinate| <= 960) every kernel
# stays inside that range up to 2**+-500.  A tolerance would hide a
# scale-dependent constant or rewrite; comparing float.hex does not.
SCALE_EXPONENTS = (-500, -40, -1, 1, 40, 500)


@pytest.fixture(scope="module")
def scaling_cases():
    stream, _ = _materialize(1, ClipWindow(-960.0, -720.0, 960.0, 720.0), 10_000)
    return stream + adversarial_segments(ClipWindow(-100.0, -75.0, 100.0, 75.0))


@pytest.mark.parametrize("algo", ALGOS, ids=lambda a: a.value)
def test_power_of_two_scaling_is_exact(algo, scaling_cases):
    kernel = KERNELS[algo]
    bounds = (-100.0, -75.0, 100.0, 75.0)
    for seg in scaling_cases:
        res = kernel(*seg, *bounds)
        for k in SCALE_EXPONENTS:
            scaled = kernel(*(math.ldexp(v, k) for v in (*seg, *bounds)))
            expected = None if res is None else [math.ldexp(v, k).hex() for v in res]
            assert (None if scaled is None else [v.hex() for v in scaled]) == expected, (k, seg)
