import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clipbench.geom import ClipWindow, Segment
from clipbench.oracle import _lift_window, clip_exact, to_double_outcome
from clipbench.verify import adversarial_segments

W = (-100, -75, 100, 75)


def test_main_diagonal():
    o = clip_exact((-200, -200, 200, 200), W)
    assert o.accepted and not o.grazing
    assert o.p1 == (Fraction(-75), Fraction(-75))
    assert o.p2 == (Fraction(75), Fraction(75))


def test_miss_above_corner():
    o = clip_exact((-200, 0, 0, 200), W)
    assert not o.accepted and not o.grazing


def test_segment_on_top_boundary_edge():
    o = clip_exact((-200, 75, 200, 75), W)
    assert o.accepted and o.grazing
    assert o.p1 == (Fraction(-100), Fraction(75))
    assert o.p2 == (Fraction(100), Fraction(75))


def test_degenerate_point_is_grazing():
    o = clip_exact((5, 5, 5, 5), W)
    assert o.accepted and o.grazing
    assert o.p1 == o.p2 == (Fraction(5), Fraction(5))


def test_corner_tangent_line_flags_grazing_on_reject():
    # Touches only the top-left corner; the segment stops short of it.
    o = clip_exact((-175, 0, -150, 25), W)
    assert not o.accepted and o.grazing
    # Same line, covering the corner: single-point accept.
    o2 = clip_exact((-175, 0, -50, 125), W)
    assert o2.accepted and o2.grazing
    assert o2.p1 == o2.p2 == (Fraction(-100), Fraction(75))


def test_endpoint_on_boundary_is_grazing():
    o = clip_exact((0, 0, 100, 0), W)
    assert o.accepted and o.grazing
    assert o.p1 == (Fraction(0), Fraction(0))
    assert o.p2 == (Fraction(100), Fraction(0))


def test_invalid_window_raises():
    # Twice: a cached window lift must not turn the second call into a hit.
    for _ in range(2):
        with pytest.raises(ValueError):
            clip_exact((0, 0, 1, 1), (5, 0, 5, 10))


def test_accepts_segment_and_window_objects():
    o = clip_exact(Segment.of(-200, -200, 200, 200), ClipWindow(*W))
    assert o.accepted
    assert o.p1 == (Fraction(-75), Fraction(-75))


SUITE = adversarial_segments(ClipWindow(*W)) + [
    (-200.5, -199.25, 200.125, 201.75),
    (-175, 0, -150, 25),
    (0.1, 0.2, 130.3, -80.7),
]


@pytest.mark.parametrize("bounds", [W, (-100.5, -75.25, 100.125, 75.75)], ids=["int", "fractional"])
@pytest.mark.parametrize(
    "form",
    [
        lambda b: ClipWindow(*b),
        lambda b: tuple(float(v) for v in b),
        list,
        lambda b: tuple(Fraction(v) for v in b),
        lambda b: tuple(Decimal(v) for v in b),
    ],
    ids=["ClipWindow", "float-tuple", "list", "Fraction", "Decimal"],
)
def test_window_forms_give_the_same_outcomes(bounds, form):
    # Equal bounds share one cache entry whatever their types, so lift
    # this form cold, then compare against the plain tuple both cold and
    # as a cache hit.
    _lift_window.cache_clear()
    got = [clip_exact(seg, form(bounds)) for seg in SUITE]
    assert got == [clip_exact(seg, bounds) for seg in SUITE]
    _lift_window.cache_clear()
    assert got == [clip_exact(seg, bounds) for seg in SUITE]


def test_more_windows_than_the_cache_holds():
    windows = [
        (Fraction(k, 3) - 100, -75, 100 + Fraction(k, 7), Fraction(75, k + 1))
        for k in range(_lift_window.cache_info().maxsize + 5)
    ]
    segs = SUITE[::5]
    first = {}
    for w in windows:
        _lift_window.cache_clear()
        first[w] = [clip_exact(seg, w) for seg in segs]
    for _ in range(2):
        for w in windows:
            assert [clip_exact(seg, w) for seg in segs] == first[w]


def test_decimal_segment_matches_equal_fractions():
    for seg in SUITE:
        as_fractions = clip_exact(tuple(Fraction(v) for v in seg), W)
        as_decimals = clip_exact(tuple(Decimal(v) for v in seg), W)
        assert as_decimals == as_fractions
    o = clip_exact((Decimal("-200.5"), Decimal("0.1"), Decimal("200.25"), Decimal("0.1")), W)
    assert o.accepted and not o.grazing
    assert o.p1 == (Fraction(-100), Fraction(1, 10))


def test_to_double_outcome_examples():
    o = clip_exact((-200, -200, 200, 200), W)
    r = to_double_outcome(o)
    assert r.accepted
    assert r.segment.coords() == (-75.0, -75.0, 75.0, 75.0)

    assert not to_double_outcome(clip_exact((-200, 0, 0, 200), W)).accepted

    thirds = clip_exact(
        (Fraction(1, 3), 0, Fraction(2, 3), 0), (Fraction(1, 3), -1, Fraction(2, 3), 1)
    )
    r2 = to_double_outcome(thirds)
    assert r2.segment.p1.x == float(Fraction(1, 3))
    assert r2.segment.p2.x == float(Fraction(2, 3))


def test_outputs_are_reduced_rationals_with_positive_denominators():
    o = clip_exact((-200.5, -199.25, 200.125, 201.75), W)
    assert o.accepted
    for coord in (*o.p1, *o.p2):
        assert isinstance(coord, Fraction)
        assert coord.denominator > 0
        assert math.gcd(coord.numerator, coord.denominator) == 1


rational = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=50
)
scales = st.fractions(min_value=Fraction(1, 7), max_value=Fraction(9), max_denominator=11)


@st.composite
def exact_cases(draw):
    seg = tuple(draw(rational) for _ in range(4))
    x0 = draw(rational)
    y0 = draw(rational)
    wsize = draw(st.fractions(min_value=Fraction(1), max_value=Fraction(500), max_denominator=9))
    hsize = draw(st.fractions(min_value=Fraction(1), max_value=Fraction(500), max_denominator=9))
    return seg, (x0, y0, x0 + wsize, y0 + hsize)


@settings(max_examples=200, deadline=None)
@given(exact_cases(), scales)
def test_rescaling_invariance(case, scale):
    seg, window = case
    base = clip_exact(seg, window)
    scaled = clip_exact(
        tuple(scale * v for v in seg), tuple(scale * v for v in window)
    )
    assert scaled.accepted == base.accepted
    assert scaled.grazing == base.grazing
    if base.accepted:
        assert scaled.p1 == tuple(scale * v for v in base.p1)
        assert scaled.p2 == tuple(scale * v for v in base.p2)


@settings(max_examples=200, deadline=None)
@given(exact_cases())
def test_self_consistency_and_parametric_order(case):
    seg, window = case
    o = clip_exact(seg, window)
    if not o.accepted:
        return
    # Endpoints in parametric order: the direction from p1 to p2 must not
    # oppose the input direction.
    dx = seg[2] - seg[0]
    dy = seg[3] - seg[1]
    rdx = o.p2[0] - o.p1[0]
    rdy = o.p2[1] - o.p1[1]
    assert rdx * dx + rdy * dy >= 0
    again = clip_exact((*o.p1, *o.p2), window)
    assert again.accepted
    assert again.p1 == o.p1
    assert again.p2 == o.p2


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*(st.floats(-960, 960, allow_nan=False, allow_infinity=False),) * 4)
)
def test_double_round_trip_error_is_at_most_one_ulp(seg):
    o = clip_exact(seg, W)
    if not o.accepted:
        return
    r = to_double_outcome(o)
    got = r.segment.coords()
    exact = (*o.p1, *o.p2)
    for g, e in zip(got, exact):
        bound = Fraction(math.ulp(g)) if g else Fraction(5e-324)
        assert abs(Fraction(g) - e) <= bound
