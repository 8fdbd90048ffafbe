import errno
import math
import os
import re
import threading
from fractions import Fraction

import pytest

import clipbench.bench as bench_mod
import clipbench.clippers as clippers_mod
import clipbench.verify as verify_mod
from clipbench.cli import format_double, main
from clipbench.clippers import KERNELS, AlgorithmId
from clipbench.geom import ClipWindow
from clipbench.verify import adversarial_segments

from exact import exact

VERIFY_LINE = re.compile(r"^\w+: \d+ match, \d+ grazing-exempt, (\d+) MISMATCH$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_SPACE = (-960.0, -720.0, 960.0, 720.0)
_WINDOW = (-100.0, -75.0, 100.0, 75.0)


def _moved_bounds(k, shift=0.0):
    """--space and --window at the defaults plus ``shift``, times 2^k."""
    return [
        arg
        for flag, bounds in (("--space", _SPACE), ("--window", _WINDOW))
        for arg in (flag, *(repr(math.ldexp(v + shift, k)) for v in bounds))
    ]


# ---------------------------------------------------------------------------
# Usage errors

_SEG = ("--seg", "0", "0", "1", "1", "--window", "-10", "-10", "10", "10")
_DOMAIN = "the kernels' exact domain"


def _usage_rows():
    """(argv, the last stderr line) for every usage error.  "{tmp}" stands
    for the test's temporary directory."""
    yield pytest.param(
        ("clip", "--algorithm", "bresenham", *_SEG),
        "error: unknown algorithm 'bresenham'; choose from cb, cohen-sutherland, cs, "
        "cyrus-beck, kwc, lb, liang-barsky, nicholl-lee-nicholl, nln, proposed, skala",
        id="clip-unknown-algorithm")
    yield pytest.param(
        ("clip", "--algorithm", "cs", "--seg", "0", "0", "1", "1",
         "--window", "10", "-10", "-10", "10"),
        "error: xmin must be < xmax, got 10.0 >= -10.0", id="clip-invalid-window")
    # Without the domain check this printed ACCEPT 1 0 -1 0 for Proposed
    # and ACCEPT 0 0 0 0 for LB and CB, and NLN's infinite result was
    # blamed on the input as "y1 must be finite".
    for key in (algo.value.lower() for algo in AlgorithmId):
        yield pytest.param(
            ("clip", "--algorithm", key, "--seg", "1e300", "1e300", "-1e300", "-1e300",
             "--window", "-1", "-1", "1", "1"),
            f"error: segment-and-window box width and height must be at most 2**511, {_DOMAIN}",
            id=f"clip-outside-exact-domain-{key}")
    yield pytest.param(
        ("clip", "--algorithm", "cs", "--seg", "zero", "0", "1", "1",
         "--window", "-10", "-10", "10", "10"),
        "clipbench clip: error: argument --seg: invalid float value: 'zero'",
        id="malformed-number")
    yield pytest.param(("clip", "--algorithm", "cs", *_SEG, "--fast"),
                       "clipbench: error: unrecognized arguments: --fast", id="unknown-flag")
    for name, seg, message in (
        ("trailing", ("0", "0", "1", "1", "-x"), "clipbench: error: unrecognized arguments: -x"),
        ("in-value-position", ("-x", "0", "1", "1"),
         "clipbench clip: error: argument --seg: expected 4 arguments"),
        ("bare-exponent", ("0", "0", "1", "-1e"),
         "clipbench clip: error: argument --seg: expected 4 arguments"),
    ):
        yield pytest.param(("clip", "--algorithm", "cs", "--seg", *seg), message,
                           id=f"short-unknown-flag-{name}")
    yield pytest.param(
        ("bench", "--lines", "10", "--format", "yaml"),
        "clipbench bench: error: argument --format: invalid choice: 'yaml' "
        "(choose from 'csv', 'md', 'json')",
        id="bench-unknown-format")
    # --out is opened before the run, so a bad path costs no benchmark time.
    yield pytest.param(
        ("bench", "--lines", "10", "--reps", "1", "--format", "csv",
         "--out", "{tmp}/missing/report.csv"),
        "error: cannot write {tmp}/missing/report.csv: No such file or directory",
        id="bench-out-into-missing-directory")
    yield pytest.param(
        ("bench", "--lines", "10", "--reps", "1", "--out", "{tmp}/missing/r.csv"),
        "error: cannot write {tmp}/missing/r.csv: No such file or directory",
        id="bench-out-checked-before-running")
    yield pytest.param(("bench", "--lines", "10", "--reps", "1", "--out", ""),
                       "error: cannot write : No such file or directory", id="bench-empty-out")
    # A config error is found before --out is opened, so no file appears.
    yield pytest.param(("bench", "--lines", "0", "--reps", "1"),
                       "error: lines_per_run must be >= 1", id="bench-zero-lines")
    yield pytest.param(("bench", "--lines", "0", "--out", "{tmp}/r.csv"),
                       "error: lines_per_run must be >= 1", id="bench-zero-lines-out")
    yield pytest.param(("verify", "--cases", "-5"), "error: cases must be >= 0",
                       id="verify-negative-cases")
    for tolerance in ("-1", "nan", "inf"):
        yield pytest.param(
            ("verify", "--cases", "10", "--tolerance", tolerance),
            f"error: tolerance must be finite and >= 0, got {float(tolerance)!r}",
            id=f"verify-tolerance-{tolerance}")
    # bench and verify share every check of space, window and seed.
    for command, size in (("bench", "--lines"), ("verify", "--cases")):
        for name, bounds, message in (
            ("window-outside-space",
             ("--space", "-10", "-10", "10", "10", "--window", "-100", "-75", "100", "75"),
             "window must be contained in the generation space"),
            # Each bound is finite but xmax - xmin overflows to inf, which the
            # stream's mapping lo + (u / 2^64) * (hi - lo) cannot use.
            ("space-wider-than-a-double", ("--space", "-1e308", "-1e308", "1e308", "1e308"),
             "generation space width and height must be finite"),
            # Out there products of coordinate differences overflow or
            # underflow: bench would stop on a broken invariant, verify would
            # report mismatches that come from the range, not from clipping.
            ("scale-2^600", _moved_bounds(600),
             f"generation space width and height must be at most 2**511, {_DOMAIN}"),
            ("scale-2^-600", _moved_bounds(-600),
             f"window width and height must be at least 2**-500, {_DOMAIN}"),
            # splitmix64 masks its state, so an out-of-range seed would
            # otherwise run another seed's stream.
            ("seed-negative", ("--seed", "-1"), "seed must fit in 64 bits"),
            ("seed-2^64", ("--seed", str(2**64)), "seed must fit in 64 bits"),
        ):
            yield pytest.param((command, size, "10", *bounds), f"error: {message}",
                               id=f"{command}-{name}")


@pytest.mark.parametrize("argv, last_line", _usage_rows())
def test_usage_error_exits_2(capsys, monkeypatch, tmp_path, argv, last_line):
    # Exit 2, nothing on stdout, the error as the last stderr line, no
    # kernel call and no file at --out.
    calls = []

    def counting(kernel):
        def wrapped(*coords):
            calls.append(coords)
            return kernel(*coords)

        return wrapped

    counted = {algo: counting(kernel) for algo, kernel in KERNELS.items()}
    for module in (bench_mod, verify_mod, clippers_mod):
        monkeypatch.setattr(module, "KERNELS", counted)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == last_line.replace("{tmp}", str(tmp_path))
    assert calls == []
    if "--out" in argv:
        assert not os.path.lexists(argv[argv.index("--out") + 1])


# ---------------------------------------------------------------------------
# clip

def test_clip_inside(capsys):
    code, out, _ = run_cli(
        capsys, "clip", "--algorithm", "proposed",
        "--seg", "0", "0", "50", "50", "--window", "-100", "-75", "100", "75",
    )
    assert code == 0
    assert out == "ACCEPT 0 0 50 50\n"


def test_clip_reject(capsys):
    code, out, _ = run_cli(
        capsys, "clip", "--algorithm", "skala",
        "--seg", "-200", "10", "-150", "-20", "--window", "-100", "-75", "100", "75",
    )
    assert code == 0
    assert out == "REJECT\n"


def test_clip_diagonal(capsys):
    code, out, _ = run_cli(
        capsys, "clip", "--algorithm", "proposed",
        "--seg", "-200", "-200", "200", "200", "--window", "-100", "-75", "100", "75",
    )
    assert code == 0
    assert out == "ACCEPT -75 -75 75 75\n"


def test_clip_accepts_every_algorithm_key(capsys):
    for key in (
        "cs", "lb", "cb", "nln", "skala", "kwc", "proposed",
        "cohen-sutherland", "liang-barsky", "cyrus-beck", "nicholl-lee-nicholl",
    ):
        code, out, _ = run_cli(
            capsys, "clip", "--algorithm", key,
            "--seg", "0", "0", "1", "1", "--window", "-10", "-10", "10", "10",
        )
        assert code == 0
        assert out.startswith("ACCEPT")


@pytest.mark.parametrize("key", [algo.value.lower() for algo in AlgorithmId])
def test_clip_rejects_a_segment_one_ulp_below_the_window(capsys, key):
    # The segment runs one ULP below the bottom edge and out past the
    # right one.  KWC and Proposed used to accept it, and its mirrors, as
    # ACCEPT 150 -75 100 -75: a result 50 units outside the window.
    for sx, sy in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        seg = (-100 * sx, -75.00000000000001 * sy, 150 * sx, -75 * sy)
        code, out, _ = run_cli(
            capsys, "clip", "--algorithm", key, "--seg", *map(repr, seg),
            "--window", "-100", "-75", "100", "75",
        )
        assert (code, out) == (0, "REJECT\n"), seg


def test_negative_numbers_in_exponent_form_are_values(capsys):
    code, out, err = run_cli(
        capsys, "clip", "--algorithm", "cs",
        "--seg", "-1e-3", "0", "1E-3", "-0", "--window", "-1e-4", "-7.5e-05", ".1e-3", "7.5e-05",
    )
    assert (code, err) == (0, "")
    assert out == "ACCEPT -0.0001 0 0.0001 0\n"
    code, out, _ = run_cli(
        capsys, "clip", "--algorithm", "cs",
        "--seg", "-1.e+2", "-.5e1", "-5E1", "-5", "--window", "-10", "-10", "10", "10",
    )
    assert (code, out) == (0, "REJECT\n")


def test_help_exits_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0


def test_printed_doubles_reparse_bit_identically():
    import struct

    values = [0.0, -0.0, 1.5, -75.0, 1e16 + 2.0, 0.1, -1234.56789, 3.0000000000000004]
    for v in values:
        back = float(format_double(v))
        # Bit-identical round trip, including the sign of zero.
        assert struct.pack("<d", back) == struct.pack("<d", v)


# ---------------------------------------------------------------------------
# bench

def test_bench_csv_shape(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--lines", "1000", "--reps", "2", "--seed", "7",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "algorithm,run,seconds,accepted,checksum"
    assert len(lines) == 1 + 14  # 7 algorithms x 2 runs


def test_bench_markdown_has_avg_and_speedup_rows(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--lines", "200", "--reps", "2", "--seed", "1",
        "--format", "md",
    )
    assert code == 0
    assert any(l.startswith("| Avg |") for l in out.splitlines())
    assert any(l.startswith("| Speedup vs Proposed") for l in out.splitlines())


def test_bench_determinism_modulo_seconds(capsys):
    argv = ["bench", "--lines", "500", "--reps", "2", "--seed", "3", "--format", "csv"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0

    def mask(text):
        rows = []
        for line in text.strip().split("\n")[1:]:
            algo, run, _seconds, accepted, checksum = line.split(",")
            rows.append((algo, run, accepted, checksum))
        return rows

    assert mask(out1) == mask(out2)


def test_bench_algorithm_subset_and_out_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--lines", "100", "--reps", "1", "--seed", "2",
        "--format", "csv", "--algorithms", "lb,proposed", "--out", str(path),
    )
    assert code == 0
    assert out == ""
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("LB,")
    assert lines[2].startswith("Proposed,")


def test_bench_failed_run_keeps_earlier_out_file(capsys, monkeypatch, tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("old", encoding="utf-8")
    monkeypatch.setattr(bench_mod, "KERNELS", {**KERNELS, AlgorithmId.PROPOSED: lambda *a: None})
    code, _, err = run_cli(capsys, "bench", "--lines", "200", "--reps", "2", "--out", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert path.read_text(encoding="utf-8") == "old"
    # A run that succeeds replaces a longer earlier report entirely.
    monkeypatch.setattr(bench_mod, "KERNELS", KERNELS)
    path.write_text("old\n" * 10_000, encoding="utf-8")
    args = ("bench", "--lines", "200", "--reps", "2", "--format", "csv")
    assert run_cli(capsys, *args, "--out", str(path))[0] == 0

    def masked(text):  # drop the seconds column
        return [row.split(",")[:2] + row.split(",")[3:] for row in text.splitlines()]

    assert masked(path.read_text(encoding="utf-8")) == masked(run_cli(capsys, *args)[1])


def test_bench_out_to_fifo_and_device(capsys, tmp_path):
    # Neither a FIFO nor /dev/null can be truncated; the report is written anyway.
    args = ("bench", "--lines", "50", "--reps", "1", "--format", "csv")
    fifo = tmp_path / "report.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    try:
        code, out, err = run_cli(capsys, *args, "--out", str(fifo))
    finally:
        # A reader still waiting for a writer is unblocked by opening the
        # FIFO for writing.  The open must not block: the reader may be
        # past its read and closing, and then no reader would ever come.
        for _ in range(300):
            reader.join(timeout=0.1)
            if not reader.is_alive():
                break
            try:
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError as exc:  # ENXIO: the FIFO has no reader
                if exc.errno != errno.ENXIO:
                    raise
    assert not reader.is_alive()
    assert (code, out, err) == (0, "", "")
    lines = received[0].splitlines()
    assert lines[0] == "algorithm,run,seconds,accepted,checksum"
    assert len(lines) == 1 + 7
    assert run_cli(capsys, *args, "--out", os.devnull) == (0, "", "")


@pytest.mark.parametrize("k, shift, tolerance", [
    (500, 0.0, math.ldexp(1e-9, 500)),
    (-500, 0.0, math.ldexp(1e-9, -500)),
    (0, 1e6, 1e-9),
    # One ULP at 1e8 is about 1.5e-8, more than the default tolerance.
    (0, 1e8, 1e-6),
], ids=["2^500", "2^-500", "shift-1e6", "shift-1e8"])
def test_scales_and_origins_inside_the_exact_domain_run(capsys, k, shift, tolerance):
    def accepted(*bounds):
        code, out, err = run_cli(
            capsys, "bench", "--lines", "300", "--reps", "1", "--format", "csv", *bounds)
        assert (code, err) == (0, "")
        return [line.split(",")[3] for line in out.split()[1:]]

    def sweep(tol, *bounds):
        code, out, err = run_cli(
            capsys, "verify", "--cases", "300", "--seed", "2", "--tolerance", repr(tol), *bounds)
        assert (code, err) == (0, "")
        return out

    moved = _moved_bounds(k, shift)
    if shift:
        assert len(accepted(*moved)) == 7
        rows = [VERIFY_LINE.match(line) for line in sweep(tolerance, *moved).split("\n")]
        assert [m.group(1) for m in rows if m] == ["0"] * 7
    else:
        # Scaling by 2^k is exact inside the domain: the same accepts, the
        # same tallies.
        assert accepted(*moved) == accepted()
        assert sweep(tolerance, *moved) == sweep(1e-9)


def test_bench_broken_invariant_exits_1_without_traceback(capsys, monkeypatch):
    monkeypatch.setattr(bench_mod, "KERNELS", {**KERNELS, AlgorithmId.PROPOSED: lambda *a: None})
    code, _, err = run_cli(capsys, "bench", "--lines", "200", "--reps", "2")
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_bench_takes_bounds_in_exponent_form(capsys):
    def rows(*bounds):
        code, out, _ = run_cli(
            capsys, "bench", "--lines", "300", "--reps", "1", "--seed", "4",
            "--format", "csv", *bounds,
        )
        assert code == 0
        return [line.split(",")[3:] for line in out.strip().split("\n")[1:]]

    assert rows(
        "--space", "-9.6e2", "-7.2e2", "9.6e2", "7.2e2",
        "--window", "-1e2", "-7.5e1", "1e2", "7.5e1",
    ) == rows()


# ---------------------------------------------------------------------------
# verify

def test_verify_small_sweep(capsys):
    code, out, _ = run_cli(capsys, "verify", "--cases", "1000", "--seed", "3")
    assert code == 0
    lines = out.strip().split("\n")
    algo_lines = [l for l in lines if VERIFY_LINE.match(l)]
    assert len(algo_lines) == 7
    for line in algo_lines:
        assert VERIFY_LINE.match(line).group(1) == "0"
    assert any(l.startswith("random grazing:") for l in lines)


def test_verify_zero_cases_runs_adversarial_suite_only(capsys):
    code, out, _ = run_cli(capsys, "verify", "--cases", "0", "--seed", "1")
    assert code == 0
    assert "random grazing: 0 of 0" in out


def test_verify_window_scaled_by_1e_minus_6_in_exponent_form(capsys):
    def sweep(*bounds):
        code, out, err = run_cli(capsys, "verify", "--cases", "300", "--seed", "2", *bounds)
        assert (code, err) == (0, "")
        return out

    plain = sweep(
        "--space", "-0.00096", "-0.00072", "0.00096", "0.00072",
        "--window", "-0.0001", "-0.000075", "0.0001", "0.000075",
    )
    assert sweep(
        "--space", "-0.00096", "-0.00072", "0.00096", "0.00072",
        "--window", "-0.0001", "-7.5e-05", "0.0001", "7.5e-05",
    ) == plain
    assert sweep(
        "--space", "-9.6e-04", "-7.2e-04", "9.6e-04", "7.2e-04",
        "--window", "-1e-4", "-7.5e-05", "1e-4", "7.5e-05",
    ) == plain


@pytest.mark.parametrize("window, space", [
    ((-100.1, -75.3, 100.7, 75.9), None),
    ((0.001, 0.002, 0.007, 0.011), (0.0, 0.0, 1.0, 1.0)),
    ((0.0, 0.0, 1e-150, 1e-150), (0.0, 0.0, 1.0, 1.0)),
    # Small windows far from the origin: a step of |p| would make the
    # diagonal about |p| / w times the window, and kernel rounding on it
    # would leave the padded window.
    ((1e8 + 0.1, 1e8 + 0.2, 1e8 + 0.7, 1e8 + 0.9), (99999000.0, 99999000.0, 100001000.0, 100001000.0)),
    ((-99999999.9, -99999999.8, -99999999.3, -99999999.1),
     (-100001000.0, -100001000.0, -99999000.0, -99999000.0)),
], ids=["w-rounds", "px-rounds", "1e-150", "far-1e8", "far-neg-1e8"])
def test_verify_corner_tangents_touch_their_corner_where_half_extents_round(
        capsys, window, space):
    # At these windows w / 2 or px +- w / 2 rounds, and a tangent diagonal
    # built from them would miss its corner: every kernel would be blamed.
    bounds = ["--window", *map(repr, window)]
    if space:
        bounds += ["--space", *map(repr, space)]
    code, out, err = run_cli(capsys, "verify", "--cases", "0", *bounds)
    assert (code, err) == (0, "")
    rows = [VERIFY_LINE.match(line) for line in out.split("\n")]
    assert [m.group(1) for m in rows if m] == ["0"] * 7
    assert not any(line.startswith("MISMATCH") for line in out.split("\n"))
    # The tangent diagonals are the suite's segments, not points, whose
    # exact midpoint is a corner; each touches the window there alone.
    x0, y0, x1, y1 = window
    corners = {(Fraction(x), Fraction(y)) for x in (x0, x1) for y in (y0, y1)}
    tangents = [
        seg for seg in adversarial_segments(ClipWindow(*window))
        if seg[:2] != seg[2:]
        and ((Fraction(seg[0]) + Fraction(seg[2])) / 2,
             (Fraction(seg[1]) + Fraction(seg[3])) / 2) in corners
    ]
    assert len(tangents) == 8
    assert all(exact(seg, window)[0] for seg in tangents)
    # On the window's scale: no longer than twice its extent on either axis.
    assert all(abs(seg[2] - seg[0]) <= 2 * (x1 - x0) and abs(seg[3] - seg[1]) <= 2 * (y1 - y0)
               for seg in tangents)
