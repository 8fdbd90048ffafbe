"""2D line clipping: seven algorithms behind one interface, an exact
rational oracle for equivalence testing, and a deterministic benchmark
harness with csv/markdown/json reports."""

from .geom import ClipWindow, Segment
from .clippers import AlgorithmId, clip
from .oracle import ExactClipOutcome, clip_exact
from .bench import (
    BenchConfig,
    BenchInvariantError,
    BenchReport,
    RunTiming,
    mean_seconds,
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
    "ClipWindow",
    "ExactClipOutcome",
    "RunTiming",
    "Segment",
    "VerificationReport",
    "adversarial_segments",
    "clip",
    "clip_exact",
    "mean_seconds",
    "parse_report",
    "render_report",
    "run_bench",
    "run_verification",
    "speedup_percent",
]
