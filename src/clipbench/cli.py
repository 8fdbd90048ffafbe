"""Command-line front end: clip one segment, run benchmarks, verify
all clippers against the exact oracle.

Exit codes: 0 success, 1 verification mismatch or broken bench invariant,
2 usage or config error.
All flags take the window and space as ascending bounds
(xmin ymin xmax ymax), i.e. lower-left corner then upper-right corner.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .bench import BenchConfig, BenchInvariantError, render_report, run_bench
from .clippers import AlgorithmId, clip
from .geom import ClipWindow, Point2, Segment
from .verify import run_verification

__all__ = ["main", "run", "format_double"]

# Each algorithm answers to its report spelling and to its full name,
# both lowercase: "nln" and "nicholl-lee-nicholl".
_ALGORITHM_KEYS = {
    key: algo
    for algo in AlgorithmId
    for key in (algo.value.lower(), algo.name.lower().replace("_", "-"))
}
_SHORT_KEYS = [algo.value.lower() for algo in AlgorithmId]


def format_double(value: float) -> str:
    """Shortest decimal form that reparses to the identical double."""
    if value.is_integer() and abs(value) < 1e16 and not (
        value == 0.0 and math.copysign(1.0, value) < 0.0
    ):
        return str(int(value))
    return repr(value)


def _parse_algorithm(key: str) -> AlgorithmId:
    try:
        return _ALGORITHM_KEYS[key.lower()]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {key!r}; choose from {', '.join(sorted(_ALGORITHM_KEYS))}"
        ) from None


def _parse_algorithms(spec: str) -> tuple[AlgorithmId, ...]:
    return tuple(_parse_algorithm(part) for part in spec.split(",") if part)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a negative number in exponent form, such
    as -7.5e-05, as a value rather than as an unknown option flag.
    argparse's own pattern, as of Python 3.11, matches -7 and -0.5 but
    not -7.5e-05.  Subparsers inherit the class.
    """

    _NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = self._NEGATIVE_NUMBER


def _window_arg(parser, name, default, text):
    parser.add_argument(
        name,
        nargs=4,
        type=float,
        default=list(default),
        metavar=("XMIN", "YMIN", "XMAX", "YMAX"),
        help=text + " (default: %(default)s)",
    )


def _make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="clipbench",
        description="2D line clipping: seven algorithms, an exact oracle, a benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_clip = sub.add_parser("clip", help="clip one segment and print the result")
    p_clip.add_argument("--algorithm", required=True, help="|".join(_SHORT_KEYS))
    p_clip.add_argument(
        "--seg", nargs=4, type=float, required=True, metavar=("X1", "Y1", "X2", "Y2")
    )
    _window_arg(p_clip, "--window", (-100.0, -75.0, 100.0, 75.0), "clip window bounds")
    p_clip.set_defaults(func=_cmd_clip)

    p_bench = sub.add_parser("bench", help="run the timed benchmark protocol")
    p_bench.add_argument("--lines", type=int, default=1_000_000)
    p_bench.add_argument("--reps", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--format", choices=("csv", "md", "json"), default="md")
    _window_arg(p_bench, "--space", (-960.0, -720.0, 960.0, 720.0), "generation space bounds")
    _window_arg(p_bench, "--window", (-100.0, -75.0, 100.0, 75.0), "clip window bounds")
    p_bench.add_argument("--out", default=None, help="output path (default: stdout)")
    p_bench.add_argument(
        "--algorithms",
        default=",".join(_SHORT_KEYS),
        help="comma-separated list (default: all seven)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_verify = sub.add_parser("verify", help="compare every clipper against the exact oracle")
    p_verify.add_argument("--cases", type=int, default=100_000)
    p_verify.add_argument("--seed", type=int, default=1)
    _window_arg(p_verify, "--space", (-960.0, -720.0, 960.0, 720.0), "generation space bounds")
    _window_arg(p_verify, "--window", (-100.0, -75.0, 100.0, 75.0), "clip window bounds")
    p_verify.add_argument("--tolerance", type=float, default=1e-9)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def _cmd_clip(args) -> int:
    algorithm = _parse_algorithm(args.algorithm)
    window = ClipWindow(*args.window)
    seg = Segment(Point2(args.seg[0], args.seg[1]), Point2(args.seg[2], args.seg[3]))
    result = clip(algorithm, seg, window)
    if result.accepted:
        c = result.segment.coords()
        print("ACCEPT " + " ".join(format_double(v) for v in c))
    else:
        print("REJECT")
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(
        space=ClipWindow(*args.space),
        window=ClipWindow(*args.window),
        lines_per_run=args.lines,
        repetitions=args.reps,
        seed=args.seed,
        algorithms=_parse_algorithms(args.algorithms),
    )
    if not args.out:
        sys.stdout.write(render_report(run_bench(config), args.format))
        return 0
    # Open --out before the run, so a bad path costs no benchmark time, and
    # in append mode, so a run that fails leaves an earlier report intact.
    try:
        with open(args.out, "a", encoding="utf-8") as fh:
            text = render_report(run_bench(config), args.format)
            fh.truncate(0)
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc.strerror}") from None
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(
        cases=args.cases,
        seed=args.seed,
        space=ClipWindow(*args.space),
        window=ClipWindow(*args.window),
        tolerance=args.tolerance,
    )
    for check in report.checks:
        print(
            f"{check.algorithm.value}: {check.matches} match, "
            f"{check.grazing_exempt} grazing-exempt, {check.mismatches} MISMATCH"
        )
    print(
        f"random grazing: {report.random_grazing} of {report.random_cases} "
        f"({_percent(report.random_grazing, report.random_cases)}%)"
    )
    print(f"adversarial cases: {report.adversarial_cases}")
    if report.ok:
        return 0
    for check in report.checks:
        for seg, reason in check.failures:
            coords = " ".join(format_double(v) for v in seg)
            print(f"MISMATCH {check.algorithm.value}: seg {coords} ({reason})")
    return 1


def _percent(part: int, whole: int) -> str:
    if whole == 0:
        return "0.0000"
    return f"{100.0 * part / whole:.4f}"


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; --help exits 0.
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BenchInvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
