"""Start-up imports: a clipbench process loads only the modules it runs.

``hashlib`` (which loads OpenSSL), ``fractions``, ``decimal``,
``typing``, ``dataclasses`` and ``inspect`` stay out of a fresh process
that imports the CLI and both harnesses.  No clipbench path imports
``fractions``: not a ``verify`` sweep, not ``clip_exact`` on an accept
from float or int inputs, not markdown rendering.  Markdown rendering
imports ``Decimal`` on first use.  Only a cold process can see these,
since this test process has imported both long before.
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

from clipbench.oracle import clip_exact

for seg, window, clipped in (
    ((-200.0, 0.5, 200.0, 0.5), (-100.0, -75.0, 100.0, 75.0), (-100.0, 0.5, 100.0, 0.5)),
    ((-200, -200, 200, 200), (-100, -75, 100, 75), (-75.0, -75.0, 75.0, 75.0)),
):
    assert clip_exact(seg, window) == clipped, seg
    assert "fractions" not in sys.modules, f"loaded by clip_exact{seg}"

code = cli.main(["bench", "--lines", "10", "--reps", "1", "--format", "md"])
assert code == 0, code
assert "fractions" not in sys.modules, "loaded by bench"
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
