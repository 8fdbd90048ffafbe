import math

import pytest

from clipbench.geom import ClipWindow, Point2, Segment, contains, require_window_in_space

W = ClipWindow(-100, -75, 100, 75)


def test_contains_examples():
    assert contains(W, Point2(0, 0))
    assert contains(W, Point2(-100, 75))  # corner is boundary-inclusive
    assert not contains(W, Point2(-100.0001, 0))


def test_all_corners_are_inside():
    for x in (W.xmin, W.xmax):
        for y in (W.ymin, W.ymax):
            assert contains(W, Point2(x, y))


def test_window_in_space_is_boundary_inclusive():
    require_window_in_space(W, W)
    with pytest.raises(ValueError, match="contained in the generation space"):
        require_window_in_space(ClipWindow(-100, -75, 100, 75.5), W)


def test_point_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            Point2(bad, 0)
        with pytest.raises(ValueError):
            Point2(0, bad)


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
    s = Segment.of(5, 5, 5, 5)
    assert s.p1 == s.p2

