"""The benchmark harness's own tests, run as their docstring says:
`python -m pytest bench/tests` in a fresh interpreter.

A fresh interpreter, not this session: on Linux a child's ru_maxrss starts
from its parent's peak RSS at exec, and `bench/tests` bounds an idle
child's peak at 48 MiB, below what a session that has imported numpy and
hypothesis already holds (about 50 MiB).  So a rename in the package that
breaks `bench/tracer.py` or `bench/run.py` fails here, and so does a change
to what the tracer's work counters read off the package's results.
"""

import json
import os
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


def test_traced_chain_run_counts_the_snapshot_buffer(tmp_path):
    """`bench/tracer.py` reads the trajectory that `integrate_chain` returns
    (its `q`, `p` and `times`) to count the `chain` workload's snapshot bytes,
    so a traced chain run must still complete and count 8 S N + 8 S bytes:
    q at 8 bytes a float, no momenta (`chain-dispersion` records
    displacements alone, p an (S, 0) view), and the S times."""
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    env.pop("THERMOFOCK_OUTDIR", None)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), "--",
         "chain-dispersion", "--sites", "64", "--seed", "42",
         "--outdir", str(tmp_path), "--threads", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
    counts = json.loads(spans.read_text(encoding="utf-8"))["counts"]
    snapshots, sites, stride = 2096, 64, 12     # a09's run length
    assert counts["chain.site_steps"] == (snapshots - 1) * stride * sites
    assert counts["chain.snapshot_bytes"] == 8 * snapshots * sites + 8 * snapshots
