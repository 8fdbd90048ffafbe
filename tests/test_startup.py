"""Start-up imports: a clipbench process loads only the modules it runs.

``hashlib`` (which loads OpenSSL), ``fractions``, ``decimal``,
``typing``, ``dataclasses`` and ``inspect`` stay out of a fresh process
that imports the CLI and both harnesses.  ``ExactClipOutcome`` imports
``Fraction`` when it builds an accept, and markdown rendering imports
``Decimal``; only a cold process can exercise those first uses, since
this test process has imported both long before.  A ``verify`` sweep
loads neither.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from clipbench import bench

SRC = Path(__file__).resolve().parent.parent / "src"

COLD_START = """
import sys

from clipbench import bench, cli, verify

unused = ("_hashlib", "fractions", "decimal", "typing", "dataclasses", "inspect")
loaded = [m for m in unused if m in sys.modules]
assert not loaded, f"loaded at start-up: {loaded}"

# A sweep, the accept contract on the suite's grazing accepts included,
# settles every case without Fraction or Decimal.
assert cli.main(["verify", "--cases", "10"]) == 0
assert not {"fractions", "decimal"} & set(sys.modules), "loaded by verify"

from fractions import Fraction

from clipbench.geom import ClipWindow
from clipbench.oracle import ExactClipOutcome

outcome = ExactClipOutcome.of((-200.0, 0.5, 200.0, 0.5), ClipWindow(-100.0, -75.0, 100.0, 75.0))
assert outcome.accepted
assert outcome.ends == (Fraction(-100), Fraction(1, 2), Fraction(100), Fraction(1, 2)), outcome
assert [type(v) for v in outcome.ends] == [Fraction] * 4, outcome

code = cli.main(["bench", "--lines", "10", "--reps", "1", "--format", "md"])
assert code == 0, code
"""


def test_cold_start_loads_only_what_runs():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "| Exec. | CS |" in proc.stdout


def test_fold_digest_is_hashlib_blake2b():
    assert bench.blake2b is hashlib.blake2b
