import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from clipbench import oracle
from clipbench.bench import _materialize
from clipbench.geom import ClipWindow, Segment
from clipbench.oracle import _lift_window, clip_exact
from clipbench.verify import adversarial_segments

W = (-100, -75, 100, 75)
WF = tuple(float(v) for v in W)


class _FloatSubclass(float):
    """Equal to a float, but not of exact type float."""


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
    # The float cases lie trivially outside one side of the reversed
    # window, which must not let them skip the window check.
    for seg, window in (
        ((0, 0, 1, 1), (5, 0, 5, 10)),
        ((-300.0, 0.0, -200.0, 10.0), (100.0, -75.0, -100.0, 75.0)),
        ((0.0, 100.0, 10.0, 200.0), (-100.0, 75.0, 100.0, -75.0)),
        ((300.0, 0.0, 200.0, 10.0), (100.0, -75.0, 100.0, 75.0)),
    ):
        for _ in range(2):
            with pytest.raises(ValueError):
                clip_exact(seg, window)


@pytest.mark.parametrize(
    "bad, error", [(math.inf, OverflowError), (-math.inf, OverflowError), (math.nan, ValueError)]
)
def test_non_finite_float_coordinates_raise(bad, error):
    # The base segment lies trivially outside the left side, and so does
    # every copy with -inf in place of an x.
    base = (-300.0, 0.0, -200.0, 10.0)
    for i in range(4):
        with pytest.raises(error):
            clip_exact(base[:i] + (bad,) + base[i + 1:], WF)
        with pytest.raises(error):
            clip_exact(base, WF[:i] + (bad,) + WF[i + 1:])


@pytest.mark.parametrize("shift", [0.0, 1e6], ids=["origin", "shift1e6"])
@pytest.mark.parametrize(
    "corner", [(-1, -1), (1, -1), (1, 1), (-1, 1)], ids=["bl", "br", "tr", "tl"]
)
def test_float_corner_tangent_rejects(corner, shift):
    # The line through a corner with direction (1, -sx*sy) touches the
    # window only at that corner.  Both endpoints stop short of it,
    # beyond the same side, so the segment lies trivially outside.
    sx, sy = corner
    window = tuple(v + shift for v in WF)
    cx = window[2] if sx > 0 else window[0]
    cy = window[3] if sy > 0 else window[1]
    (x1, y1), (x2, y2) = ((cx + sx * k, cy - sy * k) for k in (50.0, 75.0))
    ulp = math.ulp(x1)
    assert math.ulp(x2) == ulp  # so x1 and x2 move by the same amount
    for moved in (-1, 0, 1):
        # Shifting both x by one ulp moves the line exactly, off the corner.
        seg = (x1 + moved * ulp, y1, x2 + moved * ulp, y2)
        for s in (seg, (*seg[2:], *seg[:2])):
            o = clip_exact(s, window)
            assert not o.accepted
            assert o.grazing is (moved == 0)
            assert o == clip_exact(
                tuple(map(Fraction, s)), tuple(map(Fraction, window))
            )


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
    # A float subclass is not exact type float, so like a Decimal it
    # skips the float reject path; both must match the Fractions.
    for window in (W, WF):
        for seg in SUITE:
            as_fractions = clip_exact(tuple(Fraction(v) for v in seg), window)
            as_decimals = clip_exact(tuple(Decimal(v) for v in seg), window)
            as_subclass = clip_exact(tuple(_FloatSubclass(v) for v in seg), window)
            assert as_decimals == as_subclass == as_fractions
    o = clip_exact((Decimal("-200.5"), Decimal("0.1"), Decimal("200.25"), Decimal("0.1")), W)
    assert o.accepted and not o.grazing
    assert o.p1 == (Fraction(-100), Fraction(1, 10))


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6], ids=["x1e-6", "x1", "x1e6"])
@pytest.mark.parametrize("shift", [0.0, 1e4, 1e6, 1e8], ids=["0", "1e4", "1e6", "1e8"])
def test_float_inputs_match_fraction_inputs(shift, scale, monkeypatch):
    # Fraction inputs always take the integer path, so they are the
    # reference for the float reject path.
    space = ClipWindow(*(v * scale + shift for v in (-960.0, -720.0, 960.0, 720.0)))
    window = tuple(v * scale + shift for v in WF)
    randoms, _ = _materialize(11, space, 3000)
    segs = randoms + adversarial_segments(ClipWindow(*window))
    frac_window = tuple(map(Fraction, window))

    interval_tests = []
    interval_ints = oracle._interval_ints

    def counting_interval_ints(*args):
        interval_tests.append(args)
        return interval_ints(*args)

    monkeypatch.setattr(oracle, "_interval_ints", counting_interval_ints)
    as_floats = [clip_exact(seg, window) for seg in randoms]
    # Every random reject, trivially outside one side or not, is
    # certified in floats, so only the accepts reach the integer
    # interval test.
    assert len(interval_tests) == sum(o.accepted for o in as_floats)
    as_floats += [clip_exact(seg, window) for seg in segs[len(randoms):]]
    assert as_floats == [clip_exact(tuple(map(Fraction, seg)), frac_window) for seg in segs]


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
    # float(fraction) is the conversion run_verification compares with.
    for e in (*o.p1, *o.p2):
        g = float(e)
        bound = Fraction(math.ulp(g)) if g else Fraction(5e-324)
        assert abs(Fraction(g) - e) <= bound
