"""The public names of the package, pinned.

Every exported name is used by a clipper, the bench or verify harness,
the CLI or the documented library entry points.  A new export has to be
added here on purpose.
"""

import clipbench
import clipbench.clippers

PACKAGE_SURFACE = [
    "AlgorithmId",
    "BenchConfig",
    "BenchInvariantError",
    "BenchReport",
    "ClipResult",
    "ClipWindow",
    "ExactClipOutcome",
    "Point2",
    "REJECTED",
    "RunTiming",
    "Segment",
    "VerificationReport",
    "adversarial_segments",
    "clip",
    "clip_exact",
    "mean_seconds",
    "next_u64",
    "parse_report",
    "render_report",
    "run_bench",
    "run_verification",
    "speedup_percent",
]

CLIPPERS_SURFACE = ["AlgorithmId", "EDGE_TABLE", "KERNELS", "clip"]


def test_package_surface_is_pinned():
    assert sorted(clipbench.__all__) == PACKAGE_SURFACE
    for name in PACKAGE_SURFACE:
        assert hasattr(clipbench, name), name


def test_clippers_surface_is_pinned():
    assert sorted(clipbench.clippers.__all__) == CLIPPERS_SURFACE
    for name in CLIPPERS_SURFACE:
        assert hasattr(clipbench.clippers, name), name
