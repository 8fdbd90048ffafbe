"""The public names of the package, pinned.

Every exported name is used by a clipper, the bench or verify harness,
the CLI or the documented library entry points.  A new export has to be
added here on purpose.  The README's library examples run as written.
"""

import pathlib

import clipbench
import clipbench.clippers

PACKAGE_SURFACE = [
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

CLIPPERS_SURFACE = ["AlgorithmId", "KERNELS", "clip"]


def test_package_surface_is_pinned():
    assert sorted(clipbench.__all__) == PACKAGE_SURFACE
    for name in PACKAGE_SURFACE:
        assert hasattr(clipbench, name), name


def test_clippers_surface_is_pinned():
    assert sorted(clipbench.clippers.__all__) == CLIPPERS_SURFACE
    for name in CLIPPERS_SURFACE:
        assert hasattr(clipbench.clippers, name), name


def test_readme_library_example_returns_floats():
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library\n"):]
    library = library[:library.index("\n## ")]
    # Every python block, each in a namespace of its own, as a reader
    # would paste it; the first clips with a kernel.
    blocks = [part.split("```")[0] for part in library.split("```python\n")[1:]]
    assert len(blocks) >= 2, blocks
    namespaces = [{} for _ in blocks]
    for block, namespace in zip(blocks, namespaces):
        exec(block, namespace)
    result = namespaces[0]["result"]
    assert [type(v) for v in result] == [float] * 4, result
