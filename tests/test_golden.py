"""Golden outputs: the benchmark's invocations at its pinned seeds write the
bytes recorded in `tests/golden/manifest.json`, and every real-valued flag
at the ends of the float range exits as `tests/golden/extremes.json`
records.

    python tests/test_golden.py    # rewrite both manifests from this tree

Rewriting prints, for each manifest, the labels it adds, removes and
changes against the file it overwrites, and the extreme sweep's count of
runs at each exit code.

Each invocation in `bench/run.py`'s `WORKLOADS` runs as the benchmark runs
it, a fresh `python -m thermofock.cli <args> --threads 1` child at bench seed
shift 0, and is compared on its exit code, the sha256 of its report less the
`duration_seconds` line, and the sha256 of each CSV table it writes.  The
numbers follow numpy's generators and kernels, so under another numpy
version than the manifest's the test is skipped.

The extreme sweep runs every `cli.Real` flag of every subcommand at the
smallest subnormal, a tiny and a huge normal float and minus the huge one,
in-process through `cli.evaluate`, and is compared on each run's exit code
and, at exit 1, the names of the checks that failed.  Whatever numpy's
version, no run may end in an internal error, a warning, or a numerical
failure whose text is Python's or numpy's own arithmetic message: each
exit 3 names the flag or the derived quantity that left the float range.
"""

import argparse
import collections
import contextlib
import hashlib
import importlib.util
import io
import json
import subprocess
import sys
import tempfile
import warnings
from importlib import metadata
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
MANIFEST = ROOT / "tests" / "golden" / "manifest.json"
EXTREMES = ROOT / "tests" / "golden" / "extremes.json"
EXTREME_VALUES = ("5e-324", "1e-300", "1e300", "-1e300")
# how a numerical failure reads when Python or numpy met the fault first:
# the exception's type as the report records it, or numpy's errstate text
BARE_ARITHMETIC = ("ZeroDivisionError:", "OverflowError:", " encountered in ")


def bench_run_module():
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
    bench = bench_run_module()
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


def extreme_runs() -> tuple:
    """(runs, failures): each `cli.Real` flag of each subcommand at each of
    EXTREME_VALUES, written --flag=value (argparse would read a bare -1e300
    as an option) beside --seed=1 where the subcommand requires a seed, and
    evaluated in-process.  `runs` maps each invocation to its exit code,
    with the failing check names at exit 1; `failures` maps each run that
    stopped early, exit 3 or 4, to the text its report records."""
    from thermofock import cli

    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    runs, failures = {}, {}
    for command, subparser in sub.choices.items():
        flags = [action for action in subparser._actions
                 if action.option_strings]
        required = [f"{action.option_strings[-1]}=1" for action in flags
                    if action.required]
        for action in flags:
            if not isinstance(action.type, cli.Real):
                continue
            for value in EXTREME_VALUES:
                argv = [command, f"{action.option_strings[-1]}={value}",
                        *required]
                label = " ".join(argv)
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        args = parser.parse_args(argv)
                except SystemExit as exc:
                    runs[label] = {"exit": exc.code}
                    continue
                outcome = cli.evaluate(args)
                run = runs[label] = {"exit": outcome.code}
                if outcome.code == cli.EXIT_CHECK_FAILURE:
                    run["failed"] = [check.name for check in
                                     outcome.report.checks
                                     if not check.passed]
                elif outcome.code in (cli.EXIT_NUMERICAL, cli.EXIT_INTERNAL):
                    failures[label] = outcome.report.checks[0].measured
    return runs, failures


def test_extreme_flag_values_exit_as_recorded():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs, failures = extreme_runs()
    assert [str(warning.message) for warning in caught] == []
    assert {label: text for label, text in failures.items()
            if runs[label]["exit"] == 4} == {}
    assert {label: text for label, text in failures.items()
            if any(bare in text for bare in BARE_ARITHMETIC)} == {}
    pinned = json.loads(EXTREMES.read_text(encoding="utf-8"))
    if pinned["numpy"] != metadata.version("numpy"):
        pytest.skip(f"extremes pinned under numpy {pinned['numpy']}")
    assert sorted(runs) == sorted(pinned["runs"])
    assert {label: run for label, run in runs.items()
            if run != pinned["runs"][label]} == {}


def _write(path: Path, runs: dict) -> None:
    """Write `runs` to the manifest at `path` and print the labels added,
    removed and changed against the runs it overwrites."""
    old = (json.loads(path.read_text(encoding="utf-8"))["runs"]
           if path.exists() else {})
    manifest = {"numpy": metadata.version("numpy"), "runs": runs}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {len(runs)} runs to {path}")
    for kind, labels in (
            ("added", sorted(runs.keys() - old.keys())),
            ("removed", sorted(old.keys() - runs.keys())),
            ("changed", sorted(label for label in runs.keys() & old.keys()
                               if runs[label] != old[label]))):
        print(f"  {kind}: {len(labels)}")
        for label in labels:
            print(f"    {label}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        _write(MANIFEST, golden_runs(Path(work)))
    extremes = extreme_runs()[0]
    _write(EXTREMES, extremes)
    codes = collections.Counter(run["exit"] for run in extremes.values())
    print("  exit codes: " + ", ".join(f"{count} exit {code}"
                                       for code, count in sorted(codes.items())))
