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
    clip,
    compute_outcode,
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
    "ParamInterval",
    "Point2",
    "REJECTED",
    "RunTiming",
    "Segment",
    "VerificationReport",
    "adversarial_segments",
    "clip",
    "clip_exact",
    "compute_outcode",
    "contains",
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
