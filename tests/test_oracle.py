import copy
import math
import pickle
from decimal import Decimal
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from clipbench import oracle
from clipbench.bench import _materialize
from clipbench.geom import ClipWindow, Segment
from clipbench.oracle import ExactClipOutcome, _ExactWindow, clip_exact
from clipbench.verify import adversarial_segments

W = (-100, -75, 100, 75)
WF = tuple(float(v) for v in W)


class _FloatSubclass(float):
    """Equal to a float, but not of exact type float."""


def test_main_diagonal():
    o = ExactClipOutcome.of((-200, -200, 200, 200), W)
    assert o.accepted and not o.grazing
    assert o.ends == (Fraction(-75), Fraction(-75), Fraction(75), Fraction(75))


def test_miss_above_corner():
    o = ExactClipOutcome.of((-200, 0, 0, 200), W)
    assert not o.accepted and not o.grazing


def test_segment_on_top_boundary_edge():
    o = ExactClipOutcome.of((-200, 75, 200, 75), W)
    assert o.accepted and o.grazing
    assert o.ends == (Fraction(-100), Fraction(75), Fraction(100), Fraction(75))


# Points on and 1 ULP either side of each side of WF: the centre, the
# corners, the edge midpoints, then (inside, outside) pairs per side.
_POINTS = [
    (0.0, 0.0),
    (-100.0, -75.0), (100.0, -75.0), (100.0, 75.0), (-100.0, 75.0),
    (0.0, -75.0), (100.0, 0.0), (0.0, 75.0), (-100.0, 0.0),
    (math.nextafter(-100.0, 0.0), 0.0), (math.nextafter(-100.0, -math.inf), 0.0),
    (math.nextafter(100.0, 0.0), 0.0), (math.nextafter(100.0, math.inf), 0.0),
    (0.0, math.nextafter(-75.0, 0.0)), (0.0, math.nextafter(-75.0, -math.inf)),
    (0.0, math.nextafter(75.0, 0.0)), (0.0, math.nextafter(75.0, math.inf)),
]


@pytest.mark.parametrize("exact", [False, True], ids=["float", "Fraction"])
@pytest.mark.parametrize("point", _POINTS, ids=[
    "centre", "corner-ll", "corner-lr", "corner-ur", "corner-ul",
    "mid-bottom", "mid-right", "mid-top", "mid-left",
    "left-in", "left-out", "right-in", "right-out",
    "bottom-in", "bottom-out", "top-in", "top-out",
])
def test_degenerate_point_is_grazing(point, exact):
    # A point takes the interval route: its line range is unbounded inside
    # the closed window, which the cut makes [0, 1], and empty outside.
    conv = Fraction if exact else float
    x, y = map(conv, point)
    o = ExactClipOutcome.of((x, y, x, y), tuple(map(conv, WF)))
    if -100 <= x <= 100 and -75 <= y <= 75:
        assert o.accepted and o.grazing
        assert o.ends[:2] == o.ends[2:] == (Fraction(x), Fraction(y))
    else:
        assert o == (False, None) and not o.accepted


def test_corner_tangent_line_flags_grazing_on_reject():
    # Touches only the top-left corner; the segment stops short of it.
    o = ExactClipOutcome.of((-175, 0, -150, 25), W)
    assert not o.accepted and o.grazing
    # Same line, covering the corner: single-point accept.
    o2 = ExactClipOutcome.of((-175, 0, -50, 125), W)
    assert o2.accepted and o2.grazing
    assert o2.ends[:2] == o2.ends[2:] == (Fraction(-100), Fraction(75))

    def reject(seg, window, grazing):
        for s in (seg, (*seg[2:], *seg[:2])):  # both directions
            o = ExactClipOutcome.of(s, window)
            assert o == (grazing, None) and not o.accepted, s

    # Each corner's 45-degree tangent line, stopping short before the
    # touch point and beyond it: the line's range in the window is that
    # one point, so the reject grazes.
    for conv, ts in ((int, (-50, -1, 1, 50)),
                     (Fraction, (-Fraction(151, 3), -Fraction(1, 7),
                                 Fraction(1, 7), Fraction(151, 3)))):
        window = tuple(map(conv, W))
        for sx, sy in ((-1, -1), (1, -1), (1, 1), (-1, 1)):
            cx, cy, dx, dy = sx * 100, sy * 75, 1, -sx * sy
            for ta, tb in (ts[:2], ts[2:]):
                reject((conv(cx + ta * dx), conv(cy + ta * dy),
                        conv(cx + tb * dx), conv(cy + tb * dy)), window, True)
    # A line through two opposite corners meets the window along a
    # diagonal, so a segment stopping short of either corner does not graze.
    for x, y, dx, dy in ((-100, -75, -4, -3), (100, 75, 4, 3),
                         (-100, 75, -4, 3), (100, -75, 4, -3)):
        reject((x + dx, y + dy, x + 20 * dx, y + 20 * dy), W, False)
    # On an edge line, short of the window: the line's range is the edge.
    for seg in ((110, -75, 150, -75), (101, -75, 150, -75), (-150, 75, -110, 75),
                (-100, 80, -100, 120), (-100, 76, -100, 120), (100, -120, 100, -80)):
        reject(seg, W, False)


@pytest.mark.parametrize("first", [True, False], ids=["p1", "p2"])
@pytest.mark.parametrize("end, grazing", [
    ((-100.0, 10.0), True),
    ((100.0, 10.0), True),
    ((10.0, -75.0), True),
    ((10.0, 75.0), True),
    # On the horizontal line y = 0, which is no edge line.
    ((100.0, 0.0), True),
    ((-60.0, 40.0), False),
    ((math.nextafter(-100.0, 0.0), 10.0), False),
], ids=["left", "right", "bottom", "top", "right-on-y0", "interior", "left-in"])
def test_endpoint_on_boundary_is_grazing(end, grazing, first):
    # The other endpoint is inside, so the clip is the whole segment.
    other = (0.0, 0.0) if end[1] == 0.0 else (20.0, 30.0)
    seg = (*end, *other) if first else (*other, *end)
    o = ExactClipOutcome.of(seg, WF)
    assert o.accepted and o.grazing is grazing
    assert o.ends == tuple(map(Fraction, seg))


@pytest.mark.parametrize("first", [True, False], ids=["p1", "p2"])
@pytest.mark.parametrize("end", [(-100.0, 200.0), (300.0, 75.0)], ids=["left-line", "top-line"])
def test_endpoint_on_an_edge_line_outside_the_window_is_not_grazing(end, first):
    # The clip starts or ends strictly inside the segment, so the
    # endpoint's edge equality must not count.
    seg = (*end, 20.0, 30.0) if first else (20.0, 30.0, *end)
    o = ExactClipOutcome.of(seg, WF)
    assert o.accepted and not o.grazing


def test_invalid_window_raises():
    # Twice: the second call must check the window again, as the first did.
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
        with pytest.raises(ValueError):
            clip_exact(base, WF[:i] + (bad,) + WF[i + 1:])


def test_segment_without_four_coordinates_raises():
    # On the float path (trivially outside the left side) and the integer path.
    for seg in ((-300.0, 0.0, -200.0), (-10.0, -5.0, 10.0, 5.0, 0.0), (-10, -5, 10)):
        with pytest.raises(ValueError):
            clip_exact(seg, WF)


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
            o = ExactClipOutcome.of(s, window)
            assert not o.accepted
            assert o.grazing is (moved == 0)
            assert o == ExactClipOutcome.of(
                tuple(map(Fraction, s)), tuple(map(Fraction, window))
            )
            assert clip_exact(s, window) is (oracle.GRAZING if moved == 0 else None)


def test_accepts_segment_and_window_objects():
    o = ExactClipOutcome.of(Segment(-200, -200, 200, 200), ClipWindow(*W))
    assert o.accepted
    assert o.ends[:2] == (Fraction(-75), Fraction(-75))


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
    # Equal bounds lift to the same integers whatever their types; compare
    # this form against the plain tuple twice, each call lifting afresh.
    got = [ExactClipOutcome.of(seg, form(bounds)) for seg in SUITE]
    assert got == [ExactClipOutcome.of(seg, bounds) for seg in SUITE]
    assert got == [ExactClipOutcome.of(seg, bounds) for seg in SUITE]
    # clip_exact, float filter and all, gives each form those verdicts.
    assert [_verdict_bits(clip_exact(seg, form(bounds))) for seg in SUITE] == [
        _verdict(o) for o in got
    ]


def test_many_windows_give_repeatable_outcomes():
    windows = [
        (Fraction(k, 3) - 100, -75, 100 + Fraction(k, 7), Fraction(75, k + 1))
        for k in range(37)
    ]
    segs = SUITE[::5]
    first = {}
    for w in windows:
        first[w] = [ExactClipOutcome.of(seg, w) for seg in segs]
    for _ in range(2):
        for w in windows:
            assert [ExactClipOutcome.of(seg, w) for seg in segs] == first[w]
            assert [_verdict_bits(clip_exact(seg, w)) for seg in segs] == [
                _verdict(o) for o in first[w]
            ]


def test_decimal_segment_matches_equal_fractions():
    # A float subclass is not exact type float, so like a Decimal it
    # skips the float reject path; both must match the Fractions.
    for window in (W, WF):
        for seg in SUITE:
            forms = [tuple(convert(v) for v in seg) for convert in (Fraction, Decimal, _FloatSubclass)]
            as_fractions, as_decimals, as_subclass = (
                ExactClipOutcome.of(form, window) for form in forms)
            assert as_decimals == as_subclass == as_fractions
            for form in forms:
                assert _verdict_bits(clip_exact(form, window)) == _verdict(as_fractions)
    o = ExactClipOutcome.of(
        (Decimal("-200.5"), Decimal("0.1"), Decimal("200.25"), Decimal("0.1")), W)
    assert o.accepted and not o.grazing
    assert o.ends[:2] == (Fraction(-100), Fraction(1, 10))


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
    assert len(interval_tests) == sum(type(v) is tuple for v in as_floats)
    as_floats += [clip_exact(seg, window) for seg in segs[len(randoms):]]
    assert [_verdict_bits(v) for v in as_floats] == [
        _verdict(ExactClipOutcome.of(tuple(map(Fraction, seg)), frac_window)) for seg in segs
    ]


def test_outputs_are_reduced_rationals_with_positive_denominators():
    o = ExactClipOutcome.of((-200.5, -199.25, 200.125, 201.75), W)
    assert o.accepted
    for coord in o.ends:
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
    base = ExactClipOutcome.of(seg, window)
    scaled = ExactClipOutcome.of(
        tuple(scale * v for v in seg), tuple(scale * v for v in window)
    )
    assert scaled.accepted == base.accepted
    assert scaled.grazing == base.grazing
    if base.accepted:
        assert scaled.ends == tuple(scale * v for v in base.ends)


@settings(max_examples=200, deadline=None)
@given(exact_cases())
def test_self_consistency_and_parametric_order(case):
    seg, window = case
    o = ExactClipOutcome.of(seg, window)
    if not o.accepted:
        return
    # Endpoints in parametric order: the direction from the first to the
    # second must not oppose the input direction.
    dx = seg[2] - seg[0]
    dy = seg[3] - seg[1]
    rdx = o.ends[2] - o.ends[0]
    rdy = o.ends[3] - o.ends[1]
    assert rdx * dx + rdy * dy >= 0
    again = ExactClipOutcome.of(o.ends, window)
    assert again.accepted
    assert again.ends == o.ends


@settings(max_examples=200, deadline=None)
@given(
    st.tuples(*(st.floats(-960, 960, allow_nan=False, allow_infinity=False),) * 4)
)
def test_double_round_trip_error_is_at_most_one_ulp(seg):
    o = ExactClipOutcome.of(seg, W)
    if not o.accepted:
        return
    # float(fraction) equals the n / d that run_verification compares with
    # (test_float_ends_are_the_correctly_rounded_fractions).
    for e in o.ends:
        g = float(e)
        bound = Fraction(math.ulp(g)) if g else Fraction(5e-324)
        assert abs(Fraction(g) - e) <= bound


def test_outcome_endpoints_are_reduced_fraction_pairs_and_immutable():
    for seg in SUITE:
        o = ExactClipOutcome.of(seg, W)
        if not o.accepted:
            assert o.ends is None
            continue
        assert type(o.ends) is tuple and len(o.ends) == 4
        for coord in o.ends:
            assert type(coord) is Fraction
            assert coord.denominator > 0
            assert math.gcd(coord.numerator, coord.denominator) == 1
    o = ExactClipOutcome.of((-200.5, -199.25, 200.125, 201.75), W)
    for name in ("accepted", "grazing", "ends", "extra"):
        with pytest.raises(AttributeError):
            setattr(o, name, None)
        with pytest.raises(AttributeError):
            delattr(o, name)
    assert o.accepted and o.ends == ExactClipOutcome.of((-200.5, -199.25, 200.125, 201.75), W).ends


def _verdict(outcome):
    """The clip_exact verdict an exact outcome stands for, each double
    as its bit pattern."""
    if outcome.grazing:
        return oracle.GRAZING
    if outcome.ends is None:
        return None
    return [float(v).hex() for v in outcome.ends]


def _verdict_bits(verdict):
    if verdict is None or verdict is oracle.GRAZING:
        return verdict
    assert type(verdict) is tuple and [type(v) for v in verdict] == [float] * 4
    return [v.hex() for v in verdict]


def test_equal_outcomes_are_equal_values_whatever_the_input_types():
    for seg in SUITE:
        converts = [float, Fraction, lambda v: Decimal(float(v))]
        if all(float(v).is_integer() for v in seg):
            converts.append(lambda v: int(float(v)))
        outcomes = [ExactClipOutcome.of(tuple(map(convert, seg)), W) for convert in converts]
        assert outcomes[1:] == outcomes[:-1]
        assert len({hash(o) for o in outcomes}) == 1
        # clip_exact gives every input type the verdict of the exact
        # outcome.
        for convert in converts:
            verdict = clip_exact(tuple(map(convert, seg)), W)
            assert _verdict_bits(verdict) == _verdict(outcomes[0]), (seg, convert)
        o = outcomes[0]
        # The same value as built from its Fraction ends, and hashed as
        # the plain tuple of its fields.
        rebuilt = ExactClipOutcome(o.grazing, o.ends)
        assert rebuilt == o and hash(rebuilt) == hash(o)
        assert hash(o) == hash((o.grazing, o.ends))
        assert o == (o.grazing, o.ends)
        assert pickle.loads(pickle.dumps(o)) == copy.copy(o) == o
    assert ExactClipOutcome.of((-200, 0, 0, 200), W) != ExactClipOutcome.of(
        (-200, -200, 200, 200), W)
    assert ExactClipOutcome.of((5, 5, 5, 5), W) != ExactClipOutcome.of((6, 5, 6, 5), W)
    assert repr(ExactClipOutcome.of((-200.0, -200.0, 0.0, 0.0), W)) == (
        "ExactClipOutcome(grazing=False, "
        "ends=(Fraction(-75, 1), Fraction(-75, 1), Fraction(0, 1), Fraction(0, 1)))"
    )
    assert repr(ExactClipOutcome.of((-200, 0, 0, 200), W)) == (
        "ExactClipOutcome(grazing=False, ends=None)"
    )


def test_outcome_accepts_exactly_when_it_has_ends():
    # An outcome is (grazing, ends); accepted is derived from ends, so no
    # accept lacks endpoints and no reject carries them.
    assert ExactClipOutcome._fields == ("grazing", "ends")
    accept = ExactClipOutcome.of((-200, -200, 200, 200), W)
    outcomes = [
        ExactClipOutcome(False), ExactClipOutcome(True), accept,
        ExactClipOutcome(False)._replace(ends=(1, 2, 3, 4)), accept._replace(ends=None),
    ]
    assert [o.accepted for o in outcomes] == [False, False, True, True, False]
    for o in outcomes:
        assert o.accepted is (o.ends is not None)
    with pytest.raises(TypeError):
        ExactClipOutcome(True, False, (1, 2, 3, 4))
    # Ends that are no segment raise on every construction path, as
    # clip_exact raises for the same segment.
    for ends in ((1, 2, 3), (1, 2, 3, 4, 5), (1, math.nan, 3, 4), (1, 2, math.inf, 4),
                 (1, 2, 3, Decimal("-Infinity")), (Decimal("NaN"), 2, 3, 4)):
        with pytest.raises((ValueError, OverflowError)) as raised:
            clip_exact(ends, W)
        for build in (lambda: ExactClipOutcome(False, ends),
                      lambda: ExactClipOutcome._make((False, ends)),
                      lambda: accept._replace(ends=ends)):
            with pytest.raises(raised.type):
                build()


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6], ids=["x1e-6", "x1", "x1e6"])
@pytest.mark.parametrize("shift", [0.0, 1e6, 1e8], ids=["0", "1e6", "1e8"])
def test_float_ends_are_the_correctly_rounded_fractions(shift, scale):
    # clip_exact divides the unreduced integers; correctly rounded int
    # division gives the double of the reduced fraction.
    space = ClipWindow(*(v * scale + shift for v in (-960.0, -720.0, 960.0, 720.0)))
    window = ClipWindow(*(v * scale + shift for v in WF))
    randoms, _ = _materialize(13, space, 3000)
    accepts = 0
    for seg in randoms + adversarial_segments(window):
        o = ExactClipOutcome.of(seg, window)
        assert _verdict_bits(clip_exact(seg, window)) == _verdict(o)
        accepts += o.accepted
    assert accepts > 300


def test_exact_outcome_never_runs_the_float_filter(monkeypatch):
    # The exact record is the reference the float filter is checked
    # against, so it must come from the integer path alone.
    randoms, _ = _materialize(19, ClipWindow(-960.0, -720.0, 960.0, 720.0), 2000)
    segs = SUITE + randoms
    verdicts = [_verdict_bits(clip_exact(seg, WF)) for seg in segs]

    def no_filter(*args):
        raise AssertionError("the float filter ran")

    monkeypatch.setattr(oracle, "_certified_plain_reject", no_filter)
    with pytest.raises(AssertionError, match="the float filter ran"):
        clip_exact(randoms[0], WF)
    for window in (WF, _ExactWindow(WF)):
        assert [_verdict(ExactClipOutcome.of(seg, window)) for seg in segs] == verdicts


def test_prepared_window_rejects_bad_bounds():
    for bounds in (
        (100.0, -75.0, -100.0, 75.0),
        (-100.0, 75.0, 100.0, -75.0),
        (5, 0, 5, 10),
        (-100.0, -75.0, math.inf, 75.0),
        (-math.inf, -75.0, 100.0, 75.0),
        (-100.0, math.nan, 100.0, 75.0),
        (Decimal("-Infinity"), -75, 100, 75),
        (-100, -75, 100, Decimal("NaN")),
    ):
        with pytest.raises(ValueError):
            _ExactWindow(bounds)
        # Unprepared too, on the float path (a segment trivially outside
        # the left side) and on the integer path (one inside).
        for seg in ((-300.0, 0.0, -200.0, 10.0), (-10.0, -5.0, 10.0, 5.0)):
            with pytest.raises(ValueError):
                clip_exact(seg, bounds)
    with pytest.raises(ValueError):
        _ExactWindow((-100.0, -75.0, 100.0))


def test_prepared_window_gives_the_outcomes_of_its_bounds():
    for bounds, floats in (
        (W, False),
        (WF, True),
        ((-100.5, -75.25, 100.125, 75.75), True),
        (ClipWindow(*WF), True),
        ((-100.0, -75.0, 100.0, Fraction(75)), False),
        ((-100.0, -75.0, 100.0, _FloatSubclass(75)), False),
    ):
        prepared = _ExactWindow(bounds)
        assert prepared.floats is floats
        outcomes = [ExactClipOutcome.of(seg, bounds) for seg in SUITE]
        assert [ExactClipOutcome.of(seg, prepared) for seg in SUITE] == outcomes
        assert [_verdict_bits(clip_exact(seg, prepared)) for seg in SUITE] == [
            _verdict_bits(clip_exact(seg, bounds)) for seg in SUITE
        ] == [_verdict(o) for o in outcomes]


_LOOP_ERRBOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_LOOP_TINY = 2.0**-900


def _loop_certified_plain_reject(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
    """The four-corner loop form of oracle._certified_plain_reject, kept
    as the reference its two-corner form must cover: the same corner
    signs, but all four corners certified."""
    outside = (
        (x1 < xmin and x2 < xmin)
        or (x1 > xmax and x2 > xmax)
        or (y1 < ymin and y2 < ymin)
        or (y1 > ymax and y2 > ymax)
    )
    ax0 = x1 - xmin
    ax1 = x1 - xmax
    ay0 = y1 - ymin
    ay1 = y1 - ymax
    bx0 = x2 - xmin
    bx1 = x2 - xmax
    by0 = y2 - ymin
    by1 = y2 - ymax
    positive = None
    for ax, ay, bx, by in (
        (ax0, ay0, bx0, by0),
        (ax1, ay1, bx1, by1),
        (ax1, ay0, bx1, by0),
        (ax0, ay1, bx0, by1),
    ):
        detleft = ax * by
        detright = ay * bx
        det = detleft - detright
        detsum = abs(detleft) + abs(detright)
        if not (_LOOP_TINY < detsum < math.inf and abs(det) > _LOOP_ERRBOUND * detsum):
            return False
        if positive is None:
            positive = det > 0
        elif positive is not (det > 0) and not outside:
            return False
    return True


def _predicate_edge_cases(window):
    """Segments that stress the corner certification: points, corner
    tangents one ulp either way, non-finite and underflow-scale values."""
    xmin, ymin, xmax, ymax = window
    w, h = xmax - xmin, ymax - ymin
    corners = ((xmin, ymin), (xmax, ymin), (xmax, ymax), (xmin, ymax))
    segs = [(x, y, x, y) for x, y in corners]
    segs += [(xmin - w, ymin - h, xmin - w, ymin - h), (xmin + w / 3, ymin + h / 3) * 2]
    for (cx, cy), (sx, sy) in zip(corners, ((-1, -1), (1, -1), (1, 1), (-1, 1))):
        for k0, k1 in ((50.0, 75.0), (-50.0, 50.0), (-75.0, -50.0)):
            x1, y1, x2, y2 = cx + sx * k0 * w / 200, cy - sy * k0 * h / 150, \
                cx + sx * k1 * w / 200, cy - sy * k1 * h / 150
            for moved in (-1, 0, 1):
                dx = moved * math.ulp(max(abs(x1), abs(x2)))
                segs += [(x1 + dx, y1, x2 + dx, y2), (x2 + dx, y2, x1 + dx, y1)]
    base = (xmin - w, ymin + h / 2, xmax + w, ymax - h / 3)
    outside = (xmin - 2 * w, ymin, xmin - w, ymax)
    for bad in (math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 1e-310):
        for seg in (base, outside):
            segs += [seg[:i] + (bad,) + seg[i + 1:] for i in range(4)]
    return segs


def _underflow_guard_cases():
    """For each corner, a window with that corner at the origin and
    segments whose orientation there has ``|detleft| + |detright|``
    exactly at the underflow guard 2**-900, or one ulp above it, while
    the other corners' orientations are far from it."""
    cases = []
    for window in ((0.0, 0.0, 1.0, 1.0), (-1.0, -1.0, 0.0, 0.0),
                   (-1.0, 0.0, 0.0, 1.0), (0.0, -1.0, 1.0, 0.0)):
        for above in (0, 1):
            for sx1, sy1, sx2, sy2 in product((-1.0, 1.0), repeat=4):
                # |x1 * y2| + |y1 * x2| == 2**-901 * (1 + above * 2**-51)
                # + 2**-901, which is 2**-900 plus `above` ulps.
                x1 = sx1 * 2.0**-900 * (1.0 + above * 2.0**-51)
                seg = (x1, sy1 * 2.0**-901, sx2, sy2 * 0.5)
                cases += [(seg, window), ((*seg[2:], *seg[:2]), window)]
    return cases


@pytest.mark.parametrize(
    "shift, scale",
    # Products of coordinates at scale 1e-140 lie near the underflow guard,
    # and at 1e-300 they underflow.
    [(0.0, 1e-300), (0.0, 1e-140)]
    + [(shift, scale) for shift in (0.0, 1e6, 1e8) for scale in (1e-6, 1.0, 1e6)],
)
def test_unrolled_certified_reject_matches_the_loop_form(shift, scale):
    space = ClipWindow(*(v * scale + shift for v in (-960.0, -720.0, 960.0, 720.0)))
    window = tuple(v * scale + shift for v in WF)
    randoms, _ = _materialize(17, space, 2000)
    segs = randoms + adversarial_segments(ClipWindow(*window)) + _predicate_edge_cases(window)
    windows = [window] + [window[:i] + (bad,) + window[i + 1:]
                          for i in range(4) for bad in (math.nan, math.inf, -math.inf)]
    results = []
    for seg, w in [(seg, w) for w in windows for seg in segs] + _underflow_guard_cases():
        got = oracle._certified_plain_reject(*seg, *w)
        assert type(got) is bool
        # Everything the four-corner form certifies is still certified.
        assert got or not _loop_certified_plain_reject(*seg, *w), (seg, w)
        if got:
            # A non-finite coordinate, in the window or the segment, never
            # certifies; every finite certified input is an exact
            # non-grazing reject.
            assert all(map(math.isfinite, seg + w)), (seg, w)
            assert ExactClipOutcome.of(seg, w) == ExactClipOutcome(False), (seg, w)
        results.append(got)
    # Both answers occur, so the checks are not vacuous.
    assert True in results and False in results
    # Through clip_exact, each finite edge input gets the exact verdict.
    edges = [(seg, window) for seg in _predicate_edge_cases(window)] + _underflow_guard_cases()
    for seg, w in edges:
        if all(map(math.isfinite, seg)):
            assert _verdict_bits(clip_exact(seg, w)) == _verdict(ExactClipOutcome.of(seg, w)), seg


def _boundary_lattice(window):
    """All ordered pairs of 225 points: per axis the window's bounds, its
    centre and the bounds moved 50 outward, each exact and one ulp either
    way."""
    xmin, ymin, xmax, ymax = window
    def axis(lo, hi):
        return [u for v in (lo, hi, (lo + hi) / 2, lo - 50, hi + 50)
                for u in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))]
    points = list(product(axis(xmin, xmax), axis(ymin, ymax)))
    return [p + q for p, q in product(points, points)]


@pytest.mark.parametrize("shift", [0.0, 1e6], ids=["0", "1e6"])
def test_certified_reject_on_the_boundary_lattice(shift):
    # Every coordinate lies within an ulp of a window bound, the centre or
    # a point 50 outside, where the float filter and the integer path meet.
    window = tuple(v + shift for v in WF)
    exact_window = _ExactWindow(window)
    segs = _boundary_lattice(window)
    assert len(segs) == 50625
    certified = loop_certified = 0
    for seg in segs:
        got = oracle._certified_plain_reject(*seg, *window)
        loop = _loop_certified_plain_reject(*seg, *window)
        assert got or not loop, seg
        exact = ExactClipOutcome.of(seg, exact_window)
        if got:
            assert exact == ExactClipOutcome(False), seg
        assert _verdict_bits(clip_exact(seg, exact_window)) == _verdict(exact), seg
        certified += got
        loop_certified += loop
    assert certified >= loop_certified > 0
