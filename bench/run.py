"""thermofock benchmark: real CLI invocations, end to end and layer by layer.

    python3 bench/run.py --workload {sweep,chain,cloud,all} [--seed N]
                         [--seconds S] [--trace 0|1]

Each invocation is a fresh `python -m thermofock.cli <cmd> ... --threads 1`
child with its own empty `--outdir`, run one at a time by a single client in
a closed loop.  A pass runs the workload's invocation list once, in order.
The number of passes is fixed by the workload and `--seconds` (enough to
fill about `--seconds` on the reference host, at least MIN_PASSES), never by
the clock, so the same arguments always run the same invocations.

--trace 0 prints the end-to-end metrics: pass wall and CPU time (means over
passes), the largest child RSS, and set-up time (a fresh interpreter
importing the workload's modules).  --trace 1 alternates untraced passes with passes run through
`tracer.py`, which wraps every public function of the package from outside,
and prints per-layer self times, call counts and work counters.

Every invocation's `<cmd>_report.json` is checked: an invocation succeeds
only if it exits 0 with every expected check present and passed.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.

The benchmark seed N shifts every pinned acceptance seed by N; N = 0 runs
the pinned seeds themselves.  The program only ever sees the shifted seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from tracer import self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_PASSES = 3
TRACED_PASS_RATIO = 1.1   # traced pass wall over untraced: 1.0-1.07 on the reference host
WARM_PROBES = 3          # set-up probes before the first pass; one follows each pass
CHILD_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
MIB = 1024 * 1024

# Check names each subcommand's report must carry (cli.py runners).
CHECKS = {
    "gram": ("gram-quadrature-identity",),
    "coherent": ("coherent-norm-completeness", "coherent-kernel-pairing",
                 "coherent-ladder-eigenvalue"),
    "commutator": ("ladder-commutator-interior",
                   "position-momentum-commutator-interior",
                   "commutator-trace-zero", "ordering-gap-half-quantum"),
    "evolve": ("transport-vs-schrodinger", "schrodinger-normal-vs-exact",
               "symmetric-global-phase"),
    "damp": ("envelope-rate-fit", "envelope-ratio-ten-cycles",
             "closed-form-vs-leapfrog", "long-time-decay",
             "control-energy-constant", "control-leapfrog-energy",
             "fock-amplitudes-monotone"),
    "ensemble": ("ensemble-mean-trace", "ensemble-second-moment",
                 "sampler-efficiency"),
    "partition": ("analytic-action-cell", "montecarlo-action-cell-1pct",
                  "montecarlo-action-cell-4se"),
    "variation": ("antisymmetric-defect", "taylor-slope-second-order"),
    "tilt": ("tilt-mean-shift", "tilt-variance-unchanged",
             "tilt-components-uncorrelated"),
    "sphere": ("sphere-radial-exponential", "sphere-angle-uniform",
               "sphere-area-matches-action-cell"),
    "chain-dispersion": ("all-modes-resolved",
                         "dispersion-peaks-within-resolution"),
    "continuum": ("zone-center-exact", "error-quarters-when-spacing-halves",
                  "massless-linear-dispersion"),
    "rescale": ("mode-sum-diagonalizes-energy",
                "rescaled-single-frequency-energy", "mode-transform-roundtrip",
                "zero-mode-unrescaled", "uniform-action-equipartition"),
    "mode-commutator": ("cross-mode-commutators-vanish",
                        "same-mode-commutator-exact"),
    "relax": ("mode-envelope-rates", "energy-exponential-decay",
              "energy-monotone-nonincreasing"),
}

# Single-run walls from the ROADMAP baseline (2 cores, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1), keyed by invocation label at the pinned seed.
ROADMAP_WALL_S = {
    "chain-dispersion --seed 42": 1.66,
    "relax --seed 5": 1.82,
    "gram --samples 1e6 --seed 7": 1.47,
    "tilt --seed 1": 0.87,
    "sphere --seed 21": 0.8,
    "variation --seed 1": 0.8,
    "continuum": 0.13,
    "rescale --seed 1": 0.13,
    "mode-commutator": 0.13,
}


@dataclass(frozen=True)
class Invocation:
    argv: tuple               # subcommand and flags, without --seed
    seed: int | None = None   # pinned acceptance seed, None if unseeded
    extra_checks: tuple = ()

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def checks(self) -> tuple:
        return CHECKS[self.command] + self.extra_checks

    def cli_args(self, shift: int) -> list:
        args = list(self.argv)
        if self.seed is not None:
            args += ["--seed", str(self.seed + shift)]
        return args

    @property
    def label(self) -> str:
        return " ".join(self.cli_args(0))


@dataclass(frozen=True)
class Workload:
    modules: tuple
    invocations: tuple
    # Seconds an untraced pass and one set-up probe take on the reference host
    # (2 cores) in a slow period; a fast period finishes a run early.
    pass_s: float

    def passes(self, seconds: float, traced: bool) -> int:
        """Passes (rounds of an untraced and a traced pass, if `traced`) in a
        run of `seconds`.  Fixed by the arguments, so `attempted`, and with
        it `failed`, depend only on the workload, `--seconds` and the seed."""
        round_s = self.pass_s * (1 + TRACED_PASS_RATIO) if traced else self.pass_s
        return max(MIN_PASSES, int(seconds / round_s))


ALL_MODULES = ("reports", "fits", "exact", "phasespace", "bargmann", "bath",
               "dynamics", "chain")

WORKLOADS = {
    "sweep": Workload(ALL_MODULES, (
        Invocation(("gram",)),
        Invocation(("coherent",)),
        Invocation(("commutator",)),
        Invocation(("evolve",), 1),
        Invocation(("damp",)),
        Invocation(("partition",), 7),
        Invocation(("variation",), 1),
        Invocation(("tilt",), 1),
        Invocation(("sphere",), 21),
        Invocation(("continuum",)),
        Invocation(("rescale",), 1),
        Invocation(("mode-commutator",)),
    ), pass_s=11.0),
    "chain": Workload(("chain", "fits", "reports"), (
        Invocation(("chain-dispersion",), 42),
        Invocation(("chain-dispersion", "--sites", "1024"), 42),
        Invocation(("relax",), 5),
    ), pass_s=8.0),
    "cloud": Workload(("bargmann", "dynamics", "bath", "reports"), (
        Invocation(("ensemble", "--samples", "3e5"), 7),
        Invocation(("ensemble", "--c", "1.2"), 7),
        Invocation(("gram", "--samples", "1e6"), 7,
                   extra_checks=("gram-montecarlo-3se",)),
    ), pass_s=8.5),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}

TRACED_LAYERS = ("cli", "reports", "fits", "phasespace", "bath", "bargmann",
                 "dynamics", "chain")
WORK_COUNTS = {
    "reports.bytes": "bytes", "reports.csv_rows": "count",
    "phasespace.orbit_steps": "count", "bath.draws": "count",
    "bargmann.basis_evals": "count", "dynamics.particle_steps": "count",
    "dynamics.proposals": "count", "chain.site_steps": "count",
}
PER_LAYER = {
    "import.numpy_s": "s", "import.thermofock_s": "s", "import.modules": "count",
    **{f"{layer}.self_s": "s" for layer in TRACED_LAYERS},
    **{f"{layer}.calls": "count" for layer in TRACED_LAYERS},
    **{f"{layer}.raised": "count" for layer in TRACED_LAYERS},
    **WORK_COUNTS,
    "dynamics.accept_ratio": "ratio",
    "chain.site_steps_per_s": "1/s",
    "chain.snapshot_mb": "MiB-computed",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def child_env() -> dict:
    """The caller's environment with the package on the path, the output
    variable unset and the thread cap that `--threads 1` sets, so traced
    children (which import numpy before the CLI runs) see it too."""
    env = dict(os.environ)
    env.pop("THERMOFOCK_OUTDIR", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update({var: "1" for var in THREAD_VARS})
    return env


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd, env, cwd, stderr_path, timeout=CHILD_TIMEOUT_S) -> ChildRun:
    """Run one child to completion; wall from spawn to reap, CPU and peak RSS
    from that child's own rusage (`os.wait4`).  A child still running after
    `timeout` seconds, or when the benchmark itself is stopped, is killed
    and reaped."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            pidfd = os.pidfd_open(proc.pid)
            try:
                if not select.select([pidfd], [], [], timeout)[0]:
                    proc.kill()
            finally:
                os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss * 1024 / MIB)


def judge(returncode: int, report_path: Path, invocation: Invocation):
    """The report gate.  Returns (ok, valid, detail): ok means exit 0 with
    every expected check present and passed; valid means exit code and
    report agree with the CLI's exit-code contract (0 pass, 1 a check
    failed, 3 numerical failure), whatever the checks said."""
    try:
        report = json.loads(report_path.read_text(encoding="utf-8"))
        names = sorted(check["name"] for check in report["checks"])
        failing = sorted(check["name"] for check in report["checks"]
                         if not check["passed"])
        command, passed = report["command"], report["passed"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return False, False, f"exit {returncode}, no readable report ({exc})"
    complete = names == sorted(invocation.checks)
    if command != invocation.command:
        return False, False, f"report is for {command!r}"
    if returncode == 0:
        valid = complete and passed and not failing
    elif returncode == 1:
        valid = complete and not passed and bool(failing)
    elif returncode == 3:
        valid = names == ["numerical-failure"] and not passed
    else:
        valid = False
    ok = valid and returncode == 0
    missing = sorted(set(invocation.checks) - set(names))
    detail = "ok" if ok else (f"exit {returncode}, failing {failing}"
                              + (f", missing {missing}" if missing else ""))
    return ok, valid, detail


@dataclass
class InvocationResult:
    label: str               # the subcommand line as run, seed included
    run: ChildRun
    ok: bool
    valid: bool
    detail: str
    trace: dict | None = None


def run_invocation(invocation, shift, workdir, env, traced=False):
    """One invocation in a fresh output directory, through the traced entry
    point if `traced`."""
    outdir = Path(tempfile.mkdtemp(dir=workdir))
    try:
        args = invocation.cli_args(shift)
        cli_args = args + ["--threads", "1", "--outdir", str(outdir)]
        spans_path = outdir / "spans.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans_path),
                   "--", *cli_args]
        else:
            cmd = [sys.executable, "-m", "thermofock.cli", *cli_args]
        run = run_child(cmd, env, outdir, outdir / "stderr.txt")
        report = outdir / (invocation.command.replace("-", "_") + "_report.json")
        ok, valid, detail = judge(run.returncode, report, invocation)
        trace = None
        if traced:
            try:
                trace = json.loads(spans_path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                valid, detail = False, detail + ", no trace written"
        if not valid:
            detail += " | " + (outdir / "stderr.txt").read_text(
                encoding="utf-8", errors="replace")[-400:]
        return InvocationResult(" ".join(args), run, ok, valid, detail, trace)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def run_pass(workload, shift, workdir, env, traced=False):
    return [run_invocation(inv, shift, workdir, env, traced)
            for inv in workload.invocations]


def setup_probe(workload, env, workdir) -> float:
    imports = ", ".join(f"thermofock.{m}" for m in ("cli", *workload.modules))
    run = run_child([sys.executable, "-c", f"import {imports}"], env, workdir,
                    Path(workdir) / "probe_stderr.txt")
    if run.returncode != 0:
        raise RuntimeError("set-up probe failed: " + (Path(workdir) /
                           "probe_stderr.txt").read_text(errors="replace")[-400:])
    return run.wall_s


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def pass_end_to_end(results) -> dict:
    return {"wall_s": sum(r.run.wall_s for r in results),
            "cpu_s": sum(r.run.cpu_s for r in results),
            "peak_rss_mb": max(r.run.rss_mb for r in results)}


def pass_layers(results) -> dict:
    """Per-layer metrics of one traced pass, summed over its invocations."""
    m = dict.fromkeys(PER_LAYER, 0)
    snapshot_bytes = 0
    integrate_s = 0.0
    accepted = 0
    for result in results:
        spans, counts = result.trace["spans"], result.trace["counts"]
        for layer, seconds in self_times(spans).items():
            if layer in TRACED_LAYERS:
                m[f"{layer}.self_s"] += seconds
        for name, start, end, parent, raised in spans:
            layer = name.split(".", 1)[0]
            if layer == "import":
                if parent < 0 or not spans[parent][0].startswith("import."):
                    m[f"{name}_s"] += end - start
                continue
            m[f"{layer}.calls"] += 1
            m[f"{layer}.raised"] += bool(raised)
            if name == "chain.integrate_chain":
                integrate_s += end - start
        for key in (*WORK_COUNTS, "import.modules"):
            m[key] += counts.get(key, 0)
        accepted += counts.get("dynamics.accepted", 0)
        snapshot_bytes = max(snapshot_bytes, counts.get("chain.snapshot_bytes", 0))
    if m["dynamics.proposals"]:
        m["dynamics.accept_ratio"] = accepted / m["dynamics.proposals"]
    if integrate_s:
        m["chain.site_steps_per_s"] = m["chain.site_steps"] / integrate_s
    m["chain.snapshot_mb"] = snapshot_bytes / MIB
    return m


def medians(rows) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run from an export that has no .git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(name, shift) -> dict:
    def version(package):
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"
    return {
        "workload": name, "seed": shift,
        "program_seeds": {inv.label: inv.seed + shift
                          for inv in WORKLOADS[name].invocations
                          if inv.seed is not None},
        "nproc": os.cpu_count(), "threads": 1,
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "commit": git_commit(), "machine": platform.machine(),
    }


@dataclass
class RunResult:
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True


def log(line):
    print(line, flush=True)


def measure(name, shift, seconds, traced, workdir, env) -> RunResult:
    workload = WORKLOADS[name]
    out = RunResult()
    log("environment " + json.dumps(environment(name, shift), sort_keys=True))
    setup = [] if traced else [setup_probe(workload, env, workdir)
                               for _ in range(WARM_PROBES)]
    plain, tagged = [], []
    for _ in range(workload.passes(seconds, traced)):
        plain.append(run_pass(workload, shift, workdir, env))
        if traced:
            tagged.append(run_pass(workload, shift, workdir, env, traced=True))
        else:
            setup.append(setup_probe(workload, env, workdir))
    for result in (r for p in plain + tagged for r in p):
        out.attempted += 1
        out.failed += not result.ok
        out.correct &= result.valid
        if not result.ok:
            log(f"FAILED {result.label}: {result.detail}")
    if not out.correct:
        return out
    per_command = {
        inv.label: {"wall_s": statistics.median(p[i].run.wall_s for p in plain),
                    "roadmap_s": ROADMAP_WALL_S.get(inv.label)}
        for i, inv in enumerate(workload.invocations)}
    log("per-command " + json.dumps(per_command))
    log("pass walls " + json.dumps([round(pass_end_to_end(p)["wall_s"], 4)
                                    for p in plain]))
    log(f"passes {len(plain)} untraced, {len(tagged)} traced; "
        f"failed_frac {out.failed / out.attempted:.4g} ratio")
    if traced:
        out.metrics = medians([pass_layers(p) for p in tagged])
        # each traced pass against the untraced pass just before it, so that
        # drift in machine speed between rounds cancels
        out.metrics["trace.overhead_frac"] = statistics.median(
            pass_end_to_end(t)["wall_s"] / pass_end_to_end(p)["wall_s"]
            for p, t in zip(plain, tagged)) - 1.0
        units = PER_LAYER
    else:
        rows = [pass_end_to_end(p) for p in plain]
        # Host speed on a shared VM switches between slow and fast spells
        # that last from tens of seconds to minutes.  The mean over passes
        # tracks the share of the run spent slow; a median of a few passes jumps
        # between the two speeds and spread wider over seeds.
        out.metrics = {"wall_s": statistics.fmean(r["wall_s"] for r in rows),
                       "cpu_s": statistics.fmean(r["cpu_s"] for r in rows),
                       "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rows),
                       "setup_s": statistics.median(setup)}
        units = END_TO_END
    out.metrics = {k: {"value": out.metrics[k], "unit": u} for k, u in units.items()}
    for key, metric in out.metrics.items():
        log(f"  {key:28s} {metric['value']:.6g} {metric['unit']}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="shift added to every pinned acceptance seed")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "thermofock" / "cli.py").is_file():
        print(f"error: no thermofock sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # a terminated run still kills and reaps its current child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    total = RunResult()
    try:
        for name in names:
            log(f"== {name}")
            result = measure(name, args.seed, args.seconds, bool(args.trace),
                             workdir, child_env())
            prefix = f"{name}." if len(names) > 1 else ""
            total.metrics.update({prefix + k: v for k, v in result.metrics.items()})
            total.attempted += result.attempted
            total.failed += result.failed
            total.correct &= result.correct
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": total.correct, "attempted": total.attempted,
                      "failed": total.failed, "metrics": total.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
