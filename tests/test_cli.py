import re

import pytest

from clipbench.cli import format_double, main
from clipbench.clippers import AlgorithmId
from clipbench.geom import ClipWindow
from clipbench.verify import run_verification

VERIFY_LINE = re.compile(r"^\w+: \d+ match, \d+ grazing-exempt, (\d+) MISMATCH$")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_clip_unknown_algorithm_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "clip", "--algorithm", "bresenham",
        "--seg", "0", "0", "1", "1", "--window", "-10", "-10", "10", "10",
    )
    assert code == 2
    assert err == (
        "error: unknown algorithm 'bresenham'; choose from cb, cohen-sutherland, "
        "cs, cyrus-beck, kwc, lb, liang-barsky, nicholl-lee-nicholl, nln, "
        "proposed, skala\n"
    )


def test_clip_invalid_window_exits_2(capsys):
    code, _, err = run_cli(
        capsys, "clip", "--algorithm", "cs",
        "--seg", "0", "0", "1", "1", "--window", "10", "-10", "-10", "10",
    )
    assert code == 2
    assert "xmin" in err


def test_malformed_number_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "clip", "--algorithm", "cs",
        "--seg", "zero", "0", "1", "1", "--window", "-10", "-10", "10", "10",
    )
    assert code == 2


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(
        capsys, "clip", "--algorithm", "cs",
        "--seg", "0", "0", "1", "1", "--window", "-10", "-10", "10", "10",
        "--fast",
    )
    assert code == 2


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


@pytest.mark.parametrize(
    "argv",
    [
        ("--seg", "0", "0", "1", "1", "-x"),
        ("--seg", "-x", "0", "1", "1"),
        ("--seg", "0", "0", "1", "-1e"),
    ],
    ids=["trailing", "in-value-position", "bare-exponent"],
)
def test_short_unknown_flag_still_exits_2(capsys, argv):
    code, _, err = run_cli(capsys, "clip", "--algorithm", "cs", *argv)
    assert code == 2
    assert "error" in err


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


def test_bench_out_into_missing_directory_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "report.csv"
    code, out, err = run_cli(
        capsys, "bench", "--lines", "10", "--reps", "1", "--format", "csv", "--out", str(path),
    )
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"


def test_bench_checks_out_path_before_running(capsys, monkeypatch, tmp_path):
    import clipbench.bench as bench_mod
    from clipbench.clippers import KERNELS

    calls = []

    def counting(kernel):
        def wrapped(*coords):
            calls.append(coords)
            return kernel(*coords)

        return wrapped

    monkeypatch.setattr(bench_mod, "KERNELS", {a: counting(k) for a, k in KERNELS.items()})
    path = tmp_path / "missing" / "r.csv"
    code, out, err = run_cli(capsys, "bench", "--lines", "10", "--reps", "1", "--out", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"
    assert calls == []


def test_bench_failed_run_keeps_earlier_out_file(capsys, monkeypatch, tmp_path):
    import clipbench.bench as bench_mod
    from clipbench.clippers import KERNELS

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


def test_bench_window_outside_space_exits_2(capsys):
    # verify shares the check, so it rides along as a second input.
    for command, size in (("bench", "--lines"), ("verify", "--cases")):
        code, _, err = run_cli(
            capsys, command, size, "10",
            "--space", "-10", "-10", "10", "10", "--window", "-100", "-75", "100", "75",
        )
        assert code == 2, command
        assert "contained" in err, command


def test_space_wider_than_a_double_exits_2(capsys):
    # Each bound is finite but xmax - xmin overflows to inf, which the
    # stream's mapping lo + (u / 2^64) * (hi - lo) cannot use.
    for command, size in (("bench", "--lines"), ("verify", "--cases")):
        code, out, err = run_cli(
            capsys, command, size, "10", "--space", "-1e308", "-1e308", "1e308", "1e308",
        )
        assert (code, out) == (2, ""), command
        assert err == "error: generation space width and height must be finite\n", command


def test_bench_broken_invariant_exits_1_without_traceback(capsys, monkeypatch):
    import clipbench.bench as bench_mod
    from clipbench.clippers import KERNELS

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


def test_bench_zero_lines_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "bench", "--lines", "0", "--reps", "1")
    assert code == 2
    # A config error is found before --out is opened, so no file appears.
    path = tmp_path / "r.csv"
    code, _, _ = run_cli(capsys, "bench", "--lines", "0", "--out", str(path))
    assert code == 2
    assert not path.exists()


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


def test_verify_negative_cases_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "--cases", "-5")
    assert code == 2
    # verify shares the seed check with bench: splitmix64 masks its state,
    # so an out-of-range seed would otherwise run another seed's stream.
    for command, size in (("verify", "--cases"), ("bench", "--lines")):
        for seed in ("-1", str(2**64)):
            code, out, err = run_cli(capsys, command, size, "10", "--seed", seed)
            assert (code, out, err) == (2, "", "error: seed must fit in 64 bits\n"), (command, seed)


@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
def test_verify_tolerance_not_finite_and_nonnegative_exits_2(capsys, tolerance):
    code, _, err = run_cli(capsys, "verify", "--cases", "10", "--tolerance", tolerance)
    assert code == 2
    assert "tolerance" in err


def test_injected_bug_is_caught():
    # An off-by-one boundary bug: the clamp targets sit half a unit
    # inside the real window, so accepted endpoints drift off the exact
    # clip by far more than the tolerance.
    from clipbench.clippers import KERNELS

    real = KERNELS[AlgorithmId.PROPOSED]

    def buggy(x1, y1, x2, y2, xmin, ymin, xmax, ymax):
        return real(x1, y1, x2, y2, xmin + 0.5, ymin + 0.5, xmax - 0.5, ymax - 0.5)

    report = run_verification(
        cases=500,
        seed=3,
        space=ClipWindow(-960, -720, 960, 720),
        window=ClipWindow(-100, -75, 100, 75),
        kernels={AlgorithmId.PROPOSED: buggy},
    )
    assert not report.ok
    broken = next(c for c in report.checks if c.algorithm is AlgorithmId.PROPOSED)
    assert broken.mismatches > 0
    assert 0 < len(broken.failures) <= 10
    clean = [c for c in report.checks if c.algorithm is not AlgorithmId.PROPOSED]
    assert all(c.mismatches == 0 for c in clean)
