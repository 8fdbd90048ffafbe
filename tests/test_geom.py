import math
import pickle
from fractions import Fraction

import pytest

import clipbench
from clipbench.bench import BenchConfig, BenchReport, RunTiming
from clipbench.clippers import AlgorithmId
from clipbench.geom import ClipWindow, Segment, _checked_make, require_window_in_space
from clipbench.verify import AlgorithmCheck, VerificationReport

W = ClipWindow(-100, -75, 100, 75)
TIMING = RunTiming(AlgorithmId.KWC, 1, 0.25, 3, 2**64 - 1)
REPORT = BenchReport(BenchConfig(repetitions=1, algorithms=(AlgorithmId.KWC,)), [TIMING])
CHECK = AlgorithmCheck(AlgorithmId.KWC, 1, 2, 3, (((0.0, 1.0, 2.0, 3.0), "reason"),))


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


def test_degenerate_segment_is_legal():
    s = Segment(5, 5, 5, 5)
    assert (s.x1, s.y1) == (s.x2, s.y2)



# The records are immutable named tuples: each check runs however a
# value is built, and a value survives a pickle round trip.  BAD_FIELDS
# is the one table of bad fields, each with a good record to start from.

BAD_FIELDS = [
    (Segment(0.0, 0.0, 1.0, 1.0), "x1", math.nan),
    (Segment(0.0, 0.0, 1.0, 1.0), "y2", math.inf),
    (W, "xmax", -200.0),  # swapped
    (W, "ymin", 75.0),  # zero height
    (W, "xmin", -math.inf),
    (W, "xmax", -100.0),  # zero width
    (W, "ymax", math.nan),
    (W, "xmax", Fraction(10**400, 3)),  # beyond the double range
    *((TIMING, name, bad) for name, bad in (
        ("run_index", 0), ("run_index", 1.0), ("run_index", True),
        ("seconds", math.inf), ("seconds", math.nan), ("seconds", -0.5), ("seconds", "0.5"),
        ("seconds", False), ("accepted_count", -1), ("accepted_count", 3.0),
        ("accepted_count", False), ("checksum", -1), ("checksum", 2**64), ("checksum", 7.0),
        ("checksum", True), ("algorithm", "cs"), ("algorithm", None), ("seconds", 10**400),
    )),
    (Segment(0.0, 0.0, 1.0, 1.0), "x1", 10**400),  # beyond the double range
    (Segment(0.0, 0.0, 1.0, 1.0), "x1", Fraction(10**400, 3)),
    *((BenchConfig(), name, bad) for name, bad in (
        ("window", ClipWindow(-1000.0, -75.0, 100.0, 75.0)),  # outside the space
        ("lines_per_run", 0), ("repetitions", 0), ("seed", 2**64), ("algorithms", ()),
        ("algorithms", (AlgorithmId.KWC, AlgorithmId.KWC)), ("lines_per_run", 5.5),
        ("repetitions", 2.0), ("seed", 1.0), ("repetitions", True), ("algorithms", ("cs",)),
        ("space", (-10**400, -720, 960, 720)),  # beyond the double range
        ("seed", -1), ("space", ClipWindow(-50.0, -50.0, 50.0, 50.0)),  # smaller than the window
    )),
    (REPORT, "timings", ()),  # no timing for the config's one run
    (TIMING, "seconds", -0.0),  # no timer reaches it
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


RECORDS = [
    Segment(0, 1, 2, 3), W,
    Segment(Fraction(1, 3), -0.0, 5e-324, 2**53 + 1),  # fields lifted to doubles
    CHECK, BenchConfig(), TIMING, REPORT, VerificationReport(0, 1, 0, (CHECK,)),
]


@pytest.mark.parametrize("value", RECORDS)
def test_record_pickles_and_is_immutable(value):
    back = pickle.loads(pickle.dumps(value))
    assert back == value and type(back) is type(value)
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)


def test_every_record_is_in_both_tables():
    # The records are the tuple types clipbench exports and AlgorithmCheck.
    # Each one pickles above, and each that checks its fields on every
    # construction path has a bad-field row.
    records = {AlgorithmCheck} | {
        value for value in map(clipbench.__dict__.get, clipbench.__all__)
        if isinstance(value, type) and issubclass(value, tuple)}
    assert records == {type(value) for value in RECORDS}
    checked = {record for record in records if record._make.__func__ is _checked_make}
    assert checked == {type(good) for good, _, _ in BAD_FIELDS}


def test_records_unpack_and_compare_as_tuples():
    xmin, ymin, xmax, ymax = W
    assert (xmin, ymin, xmax, ymax) == W == (-100, -75, 100, 75)
    x1, y1, x2, y2 = Segment(1, 2, 3, 4)
    assert (x1, y1, x2, y2) == Segment(1, 2, 3, 4) == (1, 2, 3, 4)
