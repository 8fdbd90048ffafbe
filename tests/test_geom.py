import math
import pickle
from decimal import Decimal
from fractions import Fraction

import pytest

from clipbench.bench import RunTiming
from clipbench.clippers import AlgorithmId
from clipbench.geom import ClipWindow, Segment, require_window_in_space
from clipbench.oracle import ExactClipOutcome
from clipbench.verify import AlgorithmCheck

W = ClipWindow(-100, -75, 100, 75)
TIMING = RunTiming(AlgorithmId.KWC, 1, 0.25, 3, 2**64 - 1)


def test_window_in_space_is_boundary_inclusive():
    require_window_in_space(W, W)
    with pytest.raises(ValueError, match="contained in the generation space"):
        require_window_in_space(ClipWindow(-100, -75, 100, 75.5), W)


def test_window_and_space_extents_bound_the_exact_domain():
    # Width and height each: the space at most 2^511, the window at least 2^-500.
    big, small = 2.0**511, 2.0**-500
    for space in (ClipWindow(0, 0, big, 1), ClipWindow(0, 0, 1, big)):
        require_window_in_space(ClipWindow(0, 0, 1, 1), space)
        wider = ClipWindow(*space[:2], *(math.nextafter(v, math.inf) for v in space[2:]))
        with pytest.raises(ValueError, match=r"at most 2\*\*511, the kernels' exact domain"):
            require_window_in_space(ClipWindow(0, 0, 1, 1), wider)
    for window in (ClipWindow(0, 0, small, 1), ClipWindow(0, 0, 1, small)):
        require_window_in_space(window, W)
        narrower = ClipWindow(*window[:2], *(math.nextafter(v, 0) for v in window[2:]))
        with pytest.raises(ValueError, match=r"at least 2\*\*-500, the kernels' exact domain"):
            require_window_in_space(narrower, W)


def test_segment_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        for i in range(4):
            with pytest.raises(ValueError, match=Segment._fields[i]):
                Segment(*(bad if j == i else 0 for j in range(4)))


def test_window_rejects_unordered_or_degenerate_bounds():
    with pytest.raises(ValueError):
        ClipWindow(1, 0, 1, 5)  # zero width
    with pytest.raises(ValueError):
        ClipWindow(2, 0, 1, 5)  # swapped
    with pytest.raises(ValueError):
        ClipWindow(0, 5, 1, 5)  # zero height
    with pytest.raises(ValueError):
        ClipWindow(0, 0, math.inf, 5)


def test_degenerate_segment_is_legal():
    s = Segment(5, 5, 5, 5)
    assert (s.x1, s.y1) == (s.x2, s.y2)



# The records are immutable named tuples: each check runs however a
# value is built, and a value survives a pickle round trip.

BAD_FIELDS = [
    (Segment(0.0, 0.0, 1.0, 1.0), "x1", math.nan),
    (Segment(0.0, 0.0, 1.0, 1.0), "y2", math.inf),
    (W, "xmax", -200.0),  # swapped
    (W, "ymin", 75.0),  # zero height
    (W, "xmin", -math.inf),
    (ExactClipOutcome(False, (1, 2, 1, 3)), "ends", (1, 2, 1)),
    (ExactClipOutcome(False, (1, 2, 1, 3)), "ends", (1, 2, 1, 3, 0)),
    (ExactClipOutcome(False, (1, 2, 1, 3)), "ends", (1, 2, math.nan, 3)),
    *((TIMING, name, bad) for name, bad in (
        ("run_index", 0), ("run_index", 1.0), ("run_index", True),
        ("seconds", math.inf), ("seconds", math.nan), ("seconds", -0.5), ("seconds", "0.5"),
        ("seconds", False), ("accepted_count", -1), ("accepted_count", 3.0),
        ("accepted_count", False), ("checksum", -1), ("checksum", 2**64), ("checksum", 7.0),
        ("checksum", True), ("algorithm", "cs"), ("algorithm", None),
    )),
]


@pytest.mark.parametrize("path", ["constructor", "_make", "_replace"])
@pytest.mark.parametrize("good, name, bad", BAD_FIELDS)
def test_bad_record_raises_on_every_construction_path(good, name, bad, path):
    values = [bad if field == name else value for field, value in zip(good._fields, good)]
    build = {
        "constructor": lambda: type(good)(*values),
        "_make": lambda: type(good)._make(values),
        "_replace": lambda: good._replace(**{name: bad}),
    }[path]
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("value", [
    Segment(0, 1, 2, 3), W,
    ExactClipOutcome(False, (Fraction(1, 2), 2, 0.25, Decimal("3.5"))),
    AlgorithmCheck(AlgorithmId.KWC, 1, 2, 3, (((0.0, 1.0, 2.0, 3.0), "reason"),)),
])
def test_record_pickles_and_is_immutable(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


def test_outcome_ends_are_in_lowest_terms_on_every_construction_path():
    # Every coordinate becomes an exact Fraction, which keeps itself in
    # lowest terms with a positive denominator, so equal values have
    # equal fields and tuple equality is equality by exact value.
    mixed = (6, -0.75, Decimal("-2.50"), Fraction(-6, -4))
    plain = (Fraction(6), Fraction(-3, 4), Fraction(-5, 2), Fraction(3, 2))
    for outcome in (ExactClipOutcome(False, mixed), ExactClipOutcome._make((False, mixed)),
                    ExactClipOutcome(True)._replace(grazing=False, ends=mixed)):
        assert [type(v) for v in outcome.ends] == [Fraction] * 4
        for v, p in zip(outcome.ends, plain):
            assert (v.numerator, v.denominator) == (p.numerator, p.denominator)
        assert outcome == ExactClipOutcome(False, plain) == (False, plain)
        assert hash(outcome) == hash((False, plain)) == hash((False, (6, -0.75, -2.5, 1.5)))


def test_records_unpack_and_compare_as_tuples():
    xmin, ymin, xmax, ymax = W
    assert (xmin, ymin, xmax, ymax) == W == (-100, -75, 100, 75)
    x1, y1, x2, y2 = Segment(1, 2, 3, 4)
    assert (x1, y1, x2, y2) == Segment(1, 2, 3, 4) == (1, 2, 3, 4)
