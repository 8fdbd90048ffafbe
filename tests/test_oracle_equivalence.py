"""Cross-checks of the seven clippers against the exact rational clipper
on a seeded random stream, the adversarial suite and boundary families,
tallied per kernel by one helper, plus the corner-mask witness lines
that the acceptance suite validates."""

import math
import random
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction

import pytest

from clipbench import bench, oracle, verify
from clipbench.bench import _materialize
from clipbench.clippers import KERNELS, AlgorithmId
from clipbench.geom import ClipWindow, require_window_in_space
from clipbench.oracle import ExactClipOutcome, clip_exact
from clipbench.verify import (
    AlgorithmCheck,
    VerificationReport,
    adversarial_segments,
    run_verification,
)

from test_clippers import _check_mirrors, _check_result

SPACE = ClipWindow(-960.0, -720.0, 960.0, 720.0)
WINDOW = ClipWindow(-100.0, -75.0, 100.0, 75.0)


def test_random_sweep_and_adversarial_suite_have_no_mismatches():
    report = run_verification(5000, 1, SPACE, WINDOW)
    assert report.ok, [
        (c.algorithm.value, c.failures) for c in report.checks if c.mismatches
    ]
    for check in report.checks:
        assert check.matches + check.grazing_exempt == 5000 + report.adversarial_cases


def test_algorithm_check_compares_and_prints_by_field():
    failures = (((0.0, 1.0, 2.0, 3.0), "reason"),)
    check = AlgorithmCheck(AlgorithmId.KWC, mismatches=1, failures=failures)
    assert check == AlgorithmCheck(AlgorithmId.KWC, 0, 0, 1, failures)
    assert check == (AlgorithmId.KWC, 0, 0, 1, failures)
    assert check != AlgorithmCheck(AlgorithmId.KWC) == (AlgorithmId.KWC, 0, 0, 0, ())
    assert repr(check) == (
        "AlgorithmCheck(algorithm=<AlgorithmId.KWC: 'KWC'>, matches=0, grazing_exempt=0, "
        "mismatches=1, failures=(((0.0, 1.0, 2.0, 3.0), 'reason'),))"
    )
    with pytest.raises(AttributeError):
        check.mismatches = 0
    report = VerificationReport(0, 1, 0, (check,))
    assert not report.ok
    assert report == (0, 1, 0, (check,))
    assert hash(report) == hash((0, 1, 0, (check,)))
    with pytest.raises(AttributeError):
        report.checks = ()


def _row_wise_report(cases, seed, space, window, kernels):
    """Reference sweep: the oracle and then every kernel, case by case."""
    kernel_map = dict(KERNELS)
    kernel_map.update(kernels)
    x0, y0, x1, y1 = window
    pad = 1e-9 * max(1.0, x1 - x0, y1 - y0)
    random_buf, _ = verify._materialize(seed, space, cases)
    suite = adversarial_segments(window)
    matches = dict.fromkeys(AlgorithmId, 0)
    grazing_exempt = dict.fromkeys(AlgorithmId, 0)
    failures = {a: [] for a in AlgorithmId}
    random_grazing = 0
    for idx, seg in enumerate(random_buf + suite):
        exact = ExactClipOutcome.of(seg, window)
        random_grazing += exact.grazing and idx < cases
        for a in AlgorithmId:
            res = kernel_map[a](*seg, *window)
            if exact.grazing:
                if res is None or verify._grazing_accept_valid(
                        res, seg, x0, y0, x1, y1, pad, 1e-9):
                    grazing_exempt[a] += 1
                else:
                    failures[a].append((seg, "grazing accept violates containment or collinearity"))
            elif not exact.accepted:
                if res is None:
                    matches[a] += 1
                else:
                    failures[a].append((seg, "accepts where the exact clipper rejects"))
            elif res is None:
                failures[a].append((seg, "rejects where the exact clipper accepts"))
            elif not all(abs(r - float(e)) <= 1e-9 for r, e in zip(res, exact.ends)):
                failures[a].append((seg, "accepted endpoints differ from the exact clip"))
            else:
                matches[a] += 1
    checks = tuple(
        AlgorithmCheck(a, matches[a], grazing_exempt[a], len(failures[a]), tuple(failures[a][:10]))
        for a in AlgorithmId
    )
    return VerificationReport(cases, len(suite), random_grazing, checks)


def _offset_lb(*args):
    res = KERNELS[AlgorithmId.LIANG_BARSKY](*args)
    return res if res is None else (res[0] + 1e-6, *res[1:])


def _flipped_cs(*args):
    if KERNELS[AlgorithmId.COHEN_SUTHERLAND](*args) is None:
        return args[:4]
    return None


def _nan_proposed(*args):
    res = KERNELS[AlgorithmId.PROPOSED](*args)
    return res if res is None else (float("nan"),) * 4


def test_nan_endpoints_never_match():
    # A NaN coordinate compares False with everything, so a comparison
    # that flags only a difference above the tolerance passes it.
    kernels = {AlgorithmId.PROPOSED: _nan_proposed}
    report = run_verification(2000, 1, SPACE, WINDOW, kernels=kernels)
    stream, _ = _materialize(1, SPACE, 2000)
    cases = stream + adversarial_segments(WINDOW)
    accepts = sum(ExactClipOutcome.of(seg, WINDOW).accepted for seg in cases)
    nan = report.checks[-1]
    assert nan.algorithm is AlgorithmId.PROPOSED
    assert (nan.matches, nan.grazing_exempt, nan.mismatches) == (len(cases) - accepts, 0, accepts)
    assert accepts == 385
    assert all(c.mismatches == 0 for c in report.checks[:-1])
    # The report spelling names the same algorithm, so the override is
    # the kernel checked; any other key is refused, not ignored.
    assert run_verification(2000, 1, SPACE, WINDOW, kernels={"Proposed": _nan_proposed}) == report
    with pytest.raises(ValueError):
        run_verification(2000, 1, SPACE, WINDOW, kernels={"proposed": _nan_proposed})


@pytest.mark.parametrize(
    "cases", [0, 1, verify._BLOCK - 1, verify._BLOCK, verify._BLOCK + 1]
)
def test_block_seams_keep_tallies_and_failure_order(cases, monkeypatch):
    # The random stream carries a window-corner point, which is grazing,
    # at every 1000th case and the last, so random_grazing counts cases on
    # both sides of a seam; the suite, whose first case is the grazing
    # center point, is a block of its own after the stream and must not
    # add to it.  Positions count from the start of the whole stream,
    # across however many calls generate it.
    generate = verify._materialize
    corner = WINDOW[:2] * 2
    offset = 0

    def with_grazing(state, space, count):
        nonlocal offset
        buf, state = generate(state, space, count)
        base, offset = offset, offset + count
        return [corner if i % 1000 == 999 or i == cases - 1 else seg
                for i, seg in enumerate(buf, base)], state

    monkeypatch.setattr(verify, "_materialize", with_grazing)
    kernels = {AlgorithmId.LIANG_BARSKY: _offset_lb, AlgorithmId.COHEN_SUTHERLAND: _flipped_cs}
    report = run_verification(cases, 3, SPACE, WINDOW, kernels=kernels)
    offset = 0
    assert report == _row_wise_report(cases, 3, SPACE, WINDOW, kernels)
    assert report.random_grazing == sum(i % 1000 == 999 or i == cases - 1 for i in range(cases))
    flipped = report.checks[0]
    assert flipped.mismatches > len(flipped.failures) == 10
    assert report.checks[1].mismatches > 0
    assert all(c.mismatches == 0 for c in report.checks[2:])


def test_sweep_takes_any_four_bounds_and_refuses_bad_ones():
    # Plain tuples or lists of bounds give the report ClipWindows give,
    # as a BenchConfig takes them.
    report = run_verification(300, 4, SPACE, WINDOW)
    assert run_verification(300, 4, tuple(SPACE), list(WINDOW)) == report
    # The records hold doubles, so int, Fraction and Decimal bounds give
    # the float sweep.
    for form in (int, Fraction, Decimal):
        assert run_verification(300, 4, map(form, SPACE), map(form, WINDOW)) == report, form
    for bad, error in (((math.nan, -75.0, 100.0, 75.0), ValueError),
                       ((100.0, -75.0, -100.0, 75.0), ValueError),
                       (("-100", -75.0, 100.0, 75.0), TypeError)):
        with pytest.raises(error):
            run_verification(300, 4, SPACE, bad)
        with pytest.raises(error):
            run_verification(300, 4, bad, WINDOW)
    # cases and seed must be ints, as BenchConfig's counts and seed are;
    # a bool is not one.
    for cases, seed in ((5.5, 4), (True, 4), (300.0, 4), (300, 1.5), (300, True)):
        with pytest.raises(ValueError, match="must be an int"):
            run_verification(cases, seed, SPACE, WINDOW)


@pytest.mark.parametrize("cases", [0, 1, verify._BLOCK, 3 * verify._BLOCK + 5])
def test_sweep_generates_the_stream_one_block_at_a_time(cases, monkeypatch):
    # The sweep never holds the whole stream: each call asks for at most
    # one block and starts from the state the previous call returned, as
    # run_bench carries the state across chunks.  Whole generator blocks
    # per sweep block keep the lane work of one whole-stream call.
    generate = verify._materialize
    calls = []

    def recording(state, space, count):
        buf, end = generate(state, space, count)
        calls.append((state, count, end))
        return buf, end

    monkeypatch.setattr(verify, "_materialize", recording)
    assert run_verification(cases, 9, SPACE, WINDOW).ok
    assert all(count <= verify._BLOCK for _, count, _ in calls)
    assert sum(count for _, count, _ in calls) == cases
    # No call at all for zero cases; otherwise the first starts from the
    # seed and each later one from the state its predecessor returned.
    assert len(calls) == -(-cases // verify._BLOCK)
    assert [start for start, _, _ in calls] == ([9] + [end for _, _, end in calls])[:len(calls)]
    assert verify._BLOCK % bench._BLOCK == 0


@pytest.mark.parametrize("cases", [0, verify._BLOCK + 1])
def test_sweep_calls_the_oracle_by_name_once_per_case(cases, monkeypatch):
    # perfbench traces the oracle layer by wrapping verify.clip_exact, so
    # the sweep must call that module-level name once per case, with one
    # window prepared for the whole sweep.
    windows = []

    def counting(seg, window):
        windows.append(window)
        return clip_exact(seg, window)

    monkeypatch.setattr(verify, "clip_exact", counting)
    report = run_verification(cases, 5, SPACE, WINDOW)
    assert len(windows) == cases + len(adversarial_segments(WINDOW))
    assert type(windows[0]) is oracle._ExactWindow
    assert all(w is windows[0] for w in windows)
    assert windows[0].bounds == WINDOW
    assert report.ok


# The tallies the benchmark's verify_sweep workload fingerprints at seed 7:
# 5000 cases at the default window and with space and window translated
# by 1e6.  Every kernel matches every case at both: Skala evaluates its
# line relative to the first endpoint, and KWC takes every crossing on
# the line through the original endpoints.
@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_seed_7_tallies_at_default_and_far_origin(shift):
    space = ClipWindow(*(v + shift for v in SPACE))
    window = ClipWindow(*(v + shift for v in WINDOW))
    report = run_verification(5000, 7, space, window)
    assert report.random_grazing == 0
    assert {c.algorithm: (c.matches, c.grazing_exempt, c.mismatches) for c in report.checks} == {
        a: (5022, 33, 0) for a in AlgorithmId
    }


KernelTally = namedtuple("KernelTally", "flips off worst_ulps")


def oracle_tally(segments, window, verdicts=None, contained=True):
    """Every kernel against the exact oracle on the list ``segments``,
    each case's verdict taken once against one prepared window, or given
    as ``verdicts``, ``clip_exact``'s answers in order.  Every result,
    grazing cases included, must pass ``_check_mirrors``, and every
    accept ``_check_result`` unless ``contained`` is false.  Returns the
    grazing cases, the non-grazing exact accepts and, per kernel, a
    ``KernelTally``: non-grazing outcome flips, agreeing accepts more
    than 1e-9 off, and the worst agreeing error in window ULPs (ULPs of
    the largest window bound)."""
    ulp = math.ulp(max(map(abs, window)))
    if verdicts is None:
        exact_window = oracle._ExactWindow(window)
        verdicts = (clip_exact(seg, exact_window) for seg in segments)
    tallies = {a: [0, 0, 0.0] for a in AlgorithmId}
    grazing = accepts = 0
    for seg, verdict in zip(segments, verdicts, strict=True):
        grazed = verdict is oracle.GRAZING
        grazing += grazed
        accepts += not grazed and verdict is not None
        for algo, kernel in KERNELS.items():
            res = kernel(*seg, *window)
            _check_mirrors(kernel, seg, window, res)
            if res is not None and contained:
                _check_result(res, seg, window)
            if grazed:
                continue
            tally = tallies[algo]
            if (res is None) != (verdict is None):
                tally[0] += 1
            elif res is not None:
                errs = [abs(r - e) for r, e in zip(res, verdict)]
                tally[1] += not all(err <= 1e-9 for err in errs)
                tally[2] = max(tally[2], max(errs) / ulp)
    return grazing, accepts, {a: KernelTally(*t) for a, t in tallies.items()}


# Space, window and stream moved to (c + shift) * scale.  Every kernel
# agrees with the oracle on the outcome of every non-grazing case, and
# its accepted endpoints lie within 64 window ULPs (ULPs of the largest
# window bound) of the doubles nearest the exact clip.  At seed 1 each
# kernel's worst is 13-18 window ULPs at shift 0, where the space's
# coordinates are ten times the window's; at the other shifts CS reaches
# 15 and every other kernel 1.  So the far-origin CS mismatches of an
# absolute 1e-9 tolerance are endpoint errors, not flips.
@pytest.mark.parametrize("shift", [0.0, 1e4, 1e6, 1e8])
def test_no_outcome_flips_and_endpoints_within_64_window_ulps(shift):
    base, _ = _materialize(1, SPACE, 2000)
    for scale in (2.0**-500, 1e-6, 1.0, 1e6, 2.0**500):
        def move(coords):
            return tuple((c + shift) * scale for c in coords)

        space, window = ClipWindow(*move(SPACE)), ClipWindow(*move(WINDOW))
        require_window_in_space(window, space)
        _, _, tallies = oracle_tally([move(s) for s in base] + adversarial_segments(window), window)
        assert all(t.flips == 0 and t.worst_ulps <= 64 for t in tallies.values()), (scale, tallies)


# Segments far longer than the window: each line passes through a uniform
# point of the window (-1, -1, 1, 1) at a uniform angle, with endpoints
# 2^k from that point.  Up to 2^50 no kernel flips a non-grazing outcome.
# The same draws flip from 2^52 on, where ulp(2^52) = 1 is half the
# window: CS 2 of 3,000 at 2^52, and at 2^54 CS 159, Skala 253, KWC 38
# and Proposed 36.  Containment is not checked here: from 2^30 on, 596
# to 900 of LB's and CB's 3,000 accepts per extent lie outside the
# padded window, up to 1.2e-7 out at 2^30 and 0.125 at 2^50, and at
# 2^50 so do 9 of NLN's.
def test_no_outcome_flips_for_segments_up_to_2_50_times_the_window():
    for k in (10, 20, 30, 40, 50):
        rng = random.Random(k)
        segs = []
        for _ in range(3000):
            px, py = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            dx, dy = math.ldexp(math.cos(angle), k), math.ldexp(math.sin(angle), k)
            segs.append((px - dx, py - dy, px + dx, py + dy))
        _, _, tallies = oracle_tally(segs, (-1.0, -1.0, 1.0, 1.0), contained=False)
        assert all(t.flips == 0 for t in tallies.values()), (k, tallies)


def _near_edge_segments(seed, space, window, count):
    """Segments with both endpoints within 2 ULPs of one edge line: the
    edge coordinate moved by k ULPs each, k uniform in -2..2, the other
    coordinate uniform over the space."""
    rng = random.Random(seed)
    segs = []
    for _ in range(count):
        side = rng.randrange(4)  # xmin, ymin, xmax, ymax
        ends = []
        for _ in range(2):
            c = window[side]
            k = rng.randint(-2, 2)
            for _ in range(abs(k)):
                c = math.nextafter(c, math.copysign(math.inf, k))
            ends.append(c)
        lo, hi = (space[1], space[3]) if side % 2 == 0 else (space[0], space[2])
        u, v = rng.uniform(lo, hi), rng.uniform(lo, hi)
        segs.append((ends[0], u, ends[1], v) if side % 2 == 0 else (u, ends[0], v, ends[1]))
    return segs


# Per kernel on 5,000 seed-5 near-edge segments: non-grazing outcome
# flips and agreeing accepts whose endpoints differ by more than 1e-9.
# LB, CB, NLN and Skala agree on every case.  CS, KWC and Proposed accept
# exact rejects, each with a result that meets the accept contract.  The
# endpoint errors reach whole edges: on (955.2268729305922,
# 74.99999999999997)-(-703.9027655162818, 75.00000000000001) CS returns
# the point (100, 75) for the exact clip (100, 75)-(-100, 75), and KWC
# and Proposed return a 200-unit edge for a 2.8-unit clip.  These are
# ceilings: a change may lower a tally, not raise it.
NEAR_EDGE_CEILINGS = {
    AlgorithmId.COHEN_SUTHERLAND: (186, 184),
    AlgorithmId.LIANG_BARSKY: (0, 0),
    AlgorithmId.CYRUS_BECK: (0, 0),
    AlgorithmId.NICHOLL_LEE_NICHOLL: (0, 0),
    AlgorithmId.SKALA: (0, 0),
    AlgorithmId.KWC: (39, 87),
    AlgorithmId.PROPOSED: (213, 87),
}


@pytest.mark.parametrize("shift", [0.0, 1e6])
def test_near_edge_family_tallies_are_pinned(shift):
    space = tuple(v + shift for v in SPACE)
    window = tuple(v + shift for v in WINDOW)
    exact_window = oracle._ExactWindow(window)
    segs = _near_edge_segments(5, space, window, 5000)
    verdicts = [clip_exact(seg, exact_window) for seg in segs]
    # Most of these cases take the integer path, which the random stream
    # rarely reaches: clip_exact's verdict must be the exact outcome's,
    # bit for bit.
    for seg, verdict in zip(segs, verdicts):
        exact = ExactClipOutcome.of(seg, exact_window)
        if exact.grazing:
            assert verdict is oracle.GRAZING
        elif exact.accepted:
            assert [v.hex() for v in verdict] == [float(v).hex() for v in exact.ends]
        else:
            assert verdict is None
    grazing, accepts, tallies = oracle_tally(segs, window, verdicts)
    assert (grazing, accepts) == (277, 1500)
    for algo, ceiling in NEAR_EDGE_CEILINGS.items():
        assert all(t <= c for t, c in zip(tallies[algo], ceiling)), (algo.value, tallies[algo])


def test_adversarial_suite_covers_the_stress_families():
    suite = adversarial_segments(WINDOW)
    assert len(suite) >= 40
    degenerate = [s for s in suite if s[0] == s[2] and s[1] == s[3]]
    vertical = [s for s in suite if s[0] == s[2] and s[1] != s[3]]
    horizontal = [s for s in suite if s[1] == s[3] and s[0] != s[2]]
    diagonal = [s for s in suite if s[0] != s[2] and s[1] != s[3]]
    assert degenerate and vertical and horizontal and diagonal
    on_boundary = [
        s
        for s in vertical + horizontal
        if s[0] in (WINDOW.xmin, WINDOW.xmax) or s[1] in (WINDOW.ymin, WINDOW.ymax)
    ]
    assert on_boundary  # boundary-collinear segments present


def test_pairwise_agreement_on_non_grazing_cases():
    # Every kernel within 1e-9 of the oracle on every non-grazing case,
    # which puts every pair of kernels within 2e-9 of each other.
    buf, _ = _materialize(123, SPACE, 2000)
    _, _, tallies = oracle_tally(buf + adversarial_segments(WINDOW), WINDOW)
    assert all(t[:2] == (0, 0) for t in tallies.values()), tallies


# ---------------------------------------------------------------------------
# Corner-sign mask witnesses, which the acceptance suite's criterion 5
# checks against the oracle and Skala's edge table.

def _corner_mask(a, b, c, window):
    x0, y0, x1, y1 = window
    mask = 0
    if a * x0 + b * y0 + c >= 0:
        mask |= 1
    if a * x1 + b * y0 + c >= 0:
        mask |= 2
    if a * x1 + b * y1 + c >= 0:
        mask |= 4
    if a * x0 + b * y1 + c >= 0:
        mask |= 8
    return mask


def _line_coeffs(seg):
    x1, y1, x2, y2 = seg
    return (y1 - y2, x2 - x1, x1 * y2 - x2 * y1)


def witness_segments(window):
    """Long segments whose supporting lines realize every achievable
    corner-sign mask, keyed by the mask they produce."""
    x0, y0, x1, y1 = window
    w = x1 - x0
    h = y1 - y0
    cx = x0 + w / 2
    cy = y0 + h / 2
    candidates = []
    # Far-away lines at every orientation: masks 0000 and 1111.
    candidates.append((x0 - 3 * w, y0 - 2 * h, x1 + 3 * w, y0 - 2 * h))
    candidates.append((x1 + 3 * w, y0 - 2 * h, x0 - 3 * w, y0 - 2 * h))
    # Mid lines crossing opposite edges: single-sign-pair masks.
    candidates.append((x0 - w, cy, x1 + w, cy))
    candidates.append((x1 + w, cy, x0 - w, cy))
    candidates.append((cx, y0 - h, cx, y1 + h))
    candidates.append((cx, y1 + h, cx, y0 - h))
    # Corner cut-off chords in both orientations: one corner separated
    # from the other three.
    for (px, py), (ex, ey) in (
        ((x0, y0), (x0 + w / 3, y0 + h / 3)),
        ((x1, y0), (x1 - w / 3, y0 + h / 3)),
        ((x1, y1), (x1 - w / 3, y1 - h / 3)),
        ((x0, y1), (x0 + w / 3, y1 - h / 3)),
    ):
        mid_x = (px + ex) / 2
        mid_y = (py + ey) / 2
        # A chord through the midpoint between the corner and the window
        # center, perpendicular to that direction, extended far out.
        dx = ex - px
        dy = ey - py
        candidates.append((mid_x - 4 * dy, mid_y + 4 * dx, mid_x + 4 * dy, mid_y - 4 * dx))
        candidates.append((mid_x + 4 * dy, mid_y - 4 * dx, mid_x - 4 * dy, mid_y + 4 * dx))
    found = {}
    for seg in candidates:
        a, b, c = _line_coeffs(seg)
        mask = _corner_mask(a, b, c, window)
        found.setdefault(mask, seg)
    return found


REALIZABLE_MASKS = {
    m for m in range(16) if m not in (0b0101, 0b1010)
}
