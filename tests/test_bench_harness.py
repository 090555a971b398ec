"""The benchmark harness's own tests, run as their docstring says:
`python -m pytest bench/tests` in a fresh interpreter.

A fresh interpreter, not this session: on Linux a child's ru_maxrss starts
from its parent's peak RSS at exec, and `bench/tests` bounds an idle
child's peak at 48 MiB, below what a session that has imported numpy and
hypothesis already holds (about 50 MiB).  So a rename in the package that
breaks `bench/tracer.py` or `bench/run.py` fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "bench" / "tests")],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
