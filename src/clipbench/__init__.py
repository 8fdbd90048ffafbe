"""2D line clipping: seven algorithms behind one interface, an exact
rational oracle for equivalence testing, and a deterministic benchmark
harness with csv/markdown/json reports."""

from .geom import (
    REJECTED,
    ClipResult,
    ClipWindow,
    Point2,
    Segment,
    contains,
)
from .clippers import (
    AlgorithmId,
    ParamInterval,
    HomogeneousLine,
    clip,
    clip_cohen_sutherland,
    clip_cyrus_beck,
    clip_kwc,
    clip_liang_barsky,
    clip_nicholl_lee_nicholl,
    clip_proposed,
    clip_skala,
    compute_outcode,
    line_coefficients,
    param_interval,
)
from .oracle import ExactClipOutcome, clip_exact, to_double_outcome
from .bench import (
    BenchConfig,
    BenchInvariantError,
    BenchReport,
    RunTiming,
    mean_seconds,
    next_u64,
    parse_report,
    render_report,
    run_bench,
    speedup_percent,
)
from .verify import VerificationReport, adversarial_segments, run_verification

__version__ = "0.1.0"

__all__ = [
    "AlgorithmId",
    "BenchConfig",
    "BenchInvariantError",
    "BenchReport",
    "ClipResult",
    "ClipWindow",
    "ExactClipOutcome",
    "HomogeneousLine",
    "ParamInterval",
    "Point2",
    "REJECTED",
    "RunTiming",
    "Segment",
    "VerificationReport",
    "adversarial_segments",
    "clip",
    "clip_cohen_sutherland",
    "clip_cyrus_beck",
    "clip_exact",
    "clip_kwc",
    "clip_liang_barsky",
    "clip_nicholl_lee_nicholl",
    "clip_proposed",
    "clip_skala",
    "compute_outcode",
    "contains",
    "line_coefficients",
    "mean_seconds",
    "next_u64",
    "param_interval",
    "parse_report",
    "render_report",
    "run_bench",
    "run_verification",
    "speedup_percent",
    "to_double_outcome",
]
