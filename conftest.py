"""Keep a test run from leaving bytecode caches beside the sources.

A stale ``__pycache__`` under ``src/`` makes ``scripts/bench_snapshot.py``
refuse that tree, and a benchmark sample should compile from source.
The environment variable covers the interpreters that tests start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
