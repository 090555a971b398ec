"""Golden outputs: the benchmark's invocations at its pinned seeds write the
bytes recorded in `tests/golden/manifest.json`.

    python tests/test_golden.py    # rewrite the manifest from this tree

Each invocation in `bench/run.py`'s `WORKLOADS` runs as the benchmark runs
it, a fresh `python -m thermofock.cli <args> --threads 1` child at bench seed
shift 0, and is compared on its exit code, the sha256 of its report less the
`duration_seconds` line, and the sha256 of each CSV table it writes.  The
numbers follow numpy's generators and kernels, so under another numpy
version than the manifest's the test is skipped.
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
import tempfile
from importlib import metadata
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"


def _bench_run():
    """`bench/run.py` as a module; it imports its sibling `tracer`."""
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    sys.path.insert(0, str(BENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def golden_runs(workdir: Path) -> dict:
    """Invocation label -> exit code and output digests, each invocation
    run once in its own empty directory under `workdir`."""
    bench = _bench_run()
    env = bench.child_env()
    runs = {}
    for workload in bench.WORKLOADS.values():
        for invocation in workload.invocations:
            args = invocation.cli_args(0)
            outdir = workdir / str(len(runs))
            outdir.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "thermofock.cli", *args,
                 "--threads", "1", "--outdir", str(outdir)],
                env=env, cwd=outdir, capture_output=True,
                timeout=bench.CHILD_TIMEOUT_S)
            report = outdir / (invocation.command.replace("-", "_")
                               + "_report.json")
            kept = b"".join(
                line for line in report.read_bytes().splitlines(keepends=True)
                if not line.lstrip().startswith(b'"duration_seconds"'))
            runs[invocation.label] = {
                "exit": proc.returncode,
                "report": _sha(kept),
                "csv": {path.name: _sha(path.read_bytes())
                        for path in sorted(outdir.glob("*.csv"))},
            }
    return runs


def test_bench_invocations_write_their_golden_outputs(tmp_path):
    golden = json.loads(MANIFEST.read_text(encoding="utf-8"))
    if golden["numpy"] != metadata.version("numpy"):
        pytest.skip(f"manifest pinned under numpy {golden['numpy']}")
    runs = golden_runs(tmp_path)
    assert sorted(runs) == sorted(golden["runs"])
    assert {label: run for label, run in runs.items()
            if run != golden["runs"][label]} == {}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        manifest = {"numpy": metadata.version("numpy"),
                    "runs": golden_runs(Path(work))}
    MANIFEST.parent.mkdir(exist_ok=True)
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    print(f"wrote {len(manifest['runs'])} runs to {MANIFEST}")
