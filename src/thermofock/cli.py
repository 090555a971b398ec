"""Reproducible experiment runner: every verification is a subcommand.

Each subcommand runs a cluster of checks, prints one line per check, writes
a versioned JSON report plus CSV data tables into the output directory, and
exits 0 only if every check passed (1 = check failure, 2 = usage error,
3 = numerical failure, 4 = internal error).  Stochastic runs require an
explicit --seed.  A report is bit-reproducible from (config, seed) apart
from its duration, whatever --threads is; so is each CSV table.  The one
exception is gram's Monte Carlo check: its zgemm sums move in their last
bits with the thread cap, and with them gram_montecarlo.csv and the check's
report values (at --samples 1e6 --seed 7 its measured value moves by one
ulp between --threads 1 and 2).

`evaluate` runs one parsed invocation in memory; `main` parses, sets up the
process, evaluates, then writes and prints.  The runners live in
`thermofock.commands`, one module per subcommand, which `RUNNERS` imports
on its first call; every heavy import happens there, so the set-up reaches
them first: the thread cap before the numerics libraries start their
pools, and the block on OpenSSL before numpy loads.  Importing the package
as a library changes nothing.

A command module never imports this one: under `python -m thermofock.cli`
this module runs as `__main__`, and importing it by name would compile and
execute it a second time.
"""

from __future__ import annotations

import argparse
import importlib
import math
import os
import sys
import time

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

OUTDIR_ENV = "THERMOFOCK_OUTDIR"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


# ---------------------------------------------------------------------------
# flag domains: each `type=` below parses one flag into a plain int, float,
# complex or list, or raises ArgumentTypeError, which argparse reports under
# the flag's name with exit 2.  Standard library only, so --threads reaches
# the environment before numpy loads.
# ---------------------------------------------------------------------------

def _parse(kind, text: str):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None


class Real:
    """A finite float above `low`, or at least `low` when `closed`."""

    def __init__(self, low: float = -math.inf, closed: bool = False):
        self.low = low
        self.closed = closed

    def __call__(self, text: str) -> float:
        value = _parse(float, text)
        inside = value >= self.low if self.closed else value > self.low
        if not (inside and math.isfinite(value)):
            bound = ("" if self.low == -math.inf
                     else f" {'>=' if self.closed else '>'} {self.low:g}")
            raise argparse.ArgumentTypeError(
                f"need a finite number{bound}, got {text!r}")
        return value


FINITE = Real()
POSITIVE = Real(0.0)
NON_NEGATIVE = Real(0.0, closed=True)


class Count:
    """A whole number from `low` to the largest float, so that it formats as
    a float; scientific notation too: --samples 1e6."""

    def __init__(self, low: int):
        self.low = low

    def __call__(self, text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            number = _parse(float, text)
            value = int(number) if number.is_integer() else None
        if value is None or not self.low <= value <= sys.float_info.max:
            raise argparse.ArgumentTypeError(
                f"need a whole number in [{self.low}, max float], got {text!r}")
        return value


class PowerOfTwo(Count):
    """A power of two >= `low`: a chain's site count."""

    def __call__(self, text: str) -> int:
        value = super().__call__(text)
        if value & (value - 1):
            raise argparse.ArgumentTypeError(
                f"need a power of two >= {self.low}, got {text!r}")
        return value


class Complex:
    """A finite complex literal: --c 0.5 or --c 0.3+0.4j."""

    def __call__(self, text: str) -> complex:
        value = _parse(complex, text.replace(" ", ""))
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise argparse.ArgumentTypeError(
                f"need a finite complex number, got {text!r}")
        return value


class Spacings:
    """Two or more positive finite lattice spacings, decreasing: 1,0.5,0.25."""

    def __call__(self, text: str) -> list:
        values = [POSITIVE(part) for part in text.split(",") if part.strip()]
        if len(values) < 2 or any(b >= a for a, b in zip(values, values[1:])):
            raise argparse.ArgumentTypeError(
                f"need two or more decreasing spacings, got {text!r}")
        return values


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def format_check(check) -> str:
    """A check record as printed after its [PASS]/[FAIL] tag."""
    extra = f" se={_fmt(check.stderr)}" if check.stderr is not None else ""
    return (f"{check.name}: measured={_fmt(check.measured)} "
            f"oracle={_fmt(check.oracle)} tol={_fmt(check.tolerance)}{extra}")


# ---------------------------------------------------------------------------
# subcommand runners: each entry imports commands/<command>.py, `-` written
# `_`, on its first call and calls its run(args, report); see
# `thermofock.commands`
# ---------------------------------------------------------------------------

def _runner(command):
    module = ".commands." + command.replace("-", "_")

    def run(args, report):
        return importlib.import_module(module, __package__).run(args, report)

    return run


RUNNERS = {command: _runner(command) for command in (
    "gram", "coherent", "commutator", "evolve", "damp", "ensemble",
    "partition", "variation", "tilt", "sphere", "chain-dispersion",
    "continuum", "rescale", "mode-commutator", "relax")}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The 15 subcommands; every value-taking flag but --outdir declares its
    domain as its `type=`, so a value outside it never reaches a runner.  A
    flag that several subcommands share with one domain and default is
    declared once, in a parent parser that each of them lists."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} or .)")
    common.add_argument("--threads", type=Count(1), default=None,
                        help="cap internal numerics parallelism")

    def shared(*flags, **kwargs):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    seed = shared("--seed", type=Count(0), required=True)
    # at zero frequency the leapfrog's rescaled variables are singular, the
    # half-quantum vanishes and variation's slope has nothing to fit
    omega = shared("--omega", type=POSITIVE, default=1.0)
    beta = shared("--beta", type=POSITIVE, default=1.0)
    hbar = shared("--hbar", type=POSITIVE, default=1.0)
    c = shared("--c", type=Complex(), default=0.5 + 0j)

    lattice = argparse.ArgumentParser(add_help=False)
    lattice.add_argument("--mass", type=POSITIVE, default=1.0)
    # thermal sampling needs every mode bound, the k = 0 one included
    lattice.add_argument("--gamma", type=POSITIVE, default=1.0)
    lattice.add_argument("--gamma-couple", type=NON_NEGATIVE, default=1.0)
    lattice.add_argument("--spacing", type=POSITIVE, default=1.0)

    parser = argparse.ArgumentParser(
        prog="thermofock",
        description="verification experiments for the thermal-oscillator "
                    "quantization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram", parents=[common, hbar],
                       help="orthonormality of the holomorphic basis")
    p.add_argument("--nmax", type=Count(0), default=16)
    p.add_argument("--samples", type=Count(2), default=0,
                   help="also run the Monte Carlo Gram check on this many "
                        "draws (by default it is skipped)")
    p.add_argument("--seed", type=Count(0), default=None)

    p = sub.add_parser("coherent", parents=[common, c, hbar],
                       help="coherent vectors: norm, kernel pairing, ladder")
    # the ladder check compares the coefficients below the truncation
    p.add_argument("--nmax", type=Count(1), default=32)

    p = sub.add_parser("commutator", parents=[common, hbar, omega],
                       help="ladder and quadrature commutators, ordering gap")
    # the checks read the interior block below the truncation
    p.add_argument("--nmax", type=Count(1), default=64)

    p = sub.add_parser("evolve", parents=[common, omega, hbar, seed],
                       help="classical transport vs Schrodinger evolution")
    p.add_argument("--nmax", type=Count(0), default=24)
    p.add_argument("--grid", type=Count(4), default=512)
    p.add_argument("--t-max", type=NON_NEGATIVE, default=None,
                   help="default 10/omega")
    p.add_argument("--n-times", type=Count(1), default=11)
    p.add_argument("--radius", type=POSITIVE, default=None,
                   help="default sqrt(hbar)")

    p = sub.add_parser("damp", parents=[common, omega, hbar],
                       help="weakly damped motion and its envelope")
    p.add_argument("--alpha", type=POSITIVE, default=None,
                   help="default 0.01*omega")
    p.add_argument("--q0", type=FINITE, default=1.0)
    p.add_argument("--v0", type=FINITE, default=0.0)
    p.add_argument("--nmax", type=Count(0), default=16)
    p.add_argument("--dt", type=POSITIVE, default=None,
                   help="default one 256th of the period")
    p.add_argument("--t-max", type=POSITIVE, default=None,
                   help="default five relaxation times")

    p = sub.add_parser("ensemble", parents=[common, c, hbar, omega, seed],
                       help="particle ensemble pushforward of |f|^2 dmu")
    p.add_argument("--nmax", type=Count(0), default=32)
    p.add_argument("--samples", type=Count(2), default=100_000)
    p.add_argument("--n-times", type=Count(1), default=20)
    p.add_argument("--t-max", type=NON_NEGATIVE, default=None,
                   help="default one period")
    p.add_argument("--alpha", type=NON_NEGATIVE, default=0.0)

    p = sub.add_parser("partition", parents=[common, beta, omega, seed],
                       help="action cell h from the partition integral")
    p.add_argument("--pairs", type=Count(1), default=1)
    p.add_argument("--samples", type=Count(2), default=1_000_000)

    p = sub.add_parser("variation", parents=[common, omega, seed],
                       help="antisymmetric variations leave Gibbs weights "
                            "stationary to first order")
    p.add_argument("--pairs", type=Count(1), default=2)
    # the standard generator is always among those checked
    p.add_argument("--count", type=Count(1), default=100)
    p.add_argument("--dt-min", type=POSITIVE, default=1e-4)
    p.add_argument("--dt-max", type=POSITIVE, default=1e-2)
    p.add_argument("--dt-count", type=Count(2), default=9)

    p = sub.add_parser("tilt", parents=[common, beta, omega, c, seed],
                       help="coherent tilt of the equilibrium Gaussian")
    p.add_argument("--samples", type=Count(2), default=100_000)

    p = sub.add_parser("sphere", parents=[common, beta, omega, seed],
                       help="uniform sphere area pushed to the phase plane")
    p.add_argument("--radius2", type=POSITIVE, default=None,
                   help="squared radius; default 1/(2 beta omega)")
    p.add_argument("--samples", type=Count(10), default=100_000)

    p = sub.add_parser("chain-dispersion", parents=[common, lattice, beta, seed],
                       help="measure the dispersion relation spectrally")
    p.add_argument("--sites", type=PowerOfTwo(2), default=256)
    p.add_argument("--periods", type=POSITIVE, default=200.0)
    p.add_argument("--dt", type=POSITIVE, default=0.05)
    p.add_argument("--stride", type=Count(1), default=12)

    p = sub.add_parser("continuum", parents=[common],
                       help="lattice dispersion converges to k^2 + M^2")
    p.add_argument("--field-mass", type=NON_NEGATIVE, default=1.0)
    # at k = 0 every error vanishes and the fourfold ratio is 0/0
    p.add_argument("--k-phys", type=POSITIVE, default=math.pi / 4.0)
    p.add_argument("--spacings", type=Spacings(), default=[1.0, 0.5, 0.25])

    p = sub.add_parser("rescale", parents=[common, lattice, beta, seed],
                       help="frequency rescaling gives all modes one action scale")
    p.add_argument("--sites", type=PowerOfTwo(2), default=64)

    p = sub.add_parser("mode-commutator", parents=[common, beta],
                       help="tensor-product ladder commutators vanish exactly")
    p.add_argument("--modes", type=Count(1), default=3)
    p.add_argument("--levels", type=Count(2), default=5)
    p.add_argument("--omega0", type=POSITIVE, default=1.0)

    p = sub.add_parser("relax", parents=[common, lattice, beta, seed],
                       help="coherent chain motion dies away under friction")
    p.add_argument("--sites", type=PowerOfTwo(2), default=16)
    p.add_argument("--alpha", type=NON_NEGATIVE, default=0.01)
    p.add_argument("--t-max", type=POSITIVE, default=None,
                   help="default ten relaxation times")
    p.add_argument("--dt", type=POSITIVE, default=0.025)
    p.add_argument("--stride", type=Count(1), default=40)

    return parser


class Outcome:
    """One run in memory: exit code, report, the tables to write beside it,
    {csv_name: numpy record array}, and, for a run that ended early, what
    standard error is told."""

    def __init__(self, code, report, tables=None, error=""):
        self.code, self.report = code, report
        self.tables, self.error = tables or {}, error


def evaluate(args) -> Outcome:
    """Run the parsed `args`, mapping what the runner raises to exit code
    2, 3 or 4 as the module docstring says.  Writes and prints nothing.
    numpy's overflow, division by zero and invalid operation raise
    FloatingPointError, an exit 3, where they would warn; underflow stays
    silent, and a kernel that meets them on purpose says so itself."""
    import numpy as np

    from .errors import ThermoFockError
    from .reports import CheckRecord, ExperimentReport

    report = ExperimentReport(args.command, {
        k: v for k, v in vars(args).items()
        if k not in ("command", "outdir", "threads")})

    def stopped(code, exc, name, verifies, trace=""):
        # a run that stopped early reports why in place of what it measured:
        # the one verdict that no tolerance derives
        report.checks = [CheckRecord(name, verifies,
                                     f"{type(exc).__name__}: {exc}",
                                     "completion", 0.0, False)]
        report.duration_seconds = time.perf_counter() - start
        return Outcome(code, report,
                       error=f"{trace}{name.replace('-', ' ')}: {exc}")

    start = time.perf_counter()
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            tables = RUNNERS[args.command](args, report)
    except argparse.ArgumentTypeError as exc:
        return Outcome(EXIT_USAGE, report, error=f"usage error: {exc}")
    except (ThermoFockError, ArithmeticError) as exc:
        return stopped(EXIT_NUMERICAL, exc, "numerical-failure",
                       "the run completes inside its numerical validity region")
    except Exception as exc:
        import traceback

        return stopped(EXIT_INTERNAL, exc, "internal-error",
                       "the run completes without an unexpected exception",
                       traceback.format_exc())
    report.duration_seconds = time.perf_counter() - start
    return Outcome(EXIT_PASS if report.passed else EXIT_CHECK_FAILURE,
                   report, tables)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.threads is not None:
        os.environ.update(dict.fromkeys(_THREAD_VARS, str(args.threads)))
    # numpy.random imports `secrets` for unseeded entropy, and with it
    # hashlib's OpenSSL backend, libcrypto: about 3.5 MiB of every run's
    # peak RSS.  Every draw here is seeded and nothing here computes a
    # hash, so hashlib serves its builtin digests (secrets still reads the
    # OS's entropy).  A module already loaded is left as it is.
    sys.modules.setdefault("_hashlib", None)
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        print(f"usage error: --outdir: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = evaluate(args)
    if outcome.error:
        print(outcome.error, file=sys.stderr)
    if outcome.code == EXIT_USAGE:
        return EXIT_USAGE
    from .reports import write_csv

    report_path = os.path.join(
        outdir, args.command.replace("-", "_") + "_report.json")
    try:
        outcome.report.write(report_path)
        for name, rows in outcome.tables.items():
            write_csv(os.path.join(outdir, name), rows)
    except (OSError, TypeError) as exc:
        # a file that cannot be written, or a report value with no JSON
        # form, which write refuses before it opens the file
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if outcome.error:
        return outcome.code
    for check in outcome.report.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {format_check(check)}")
    print(("PASS " if outcome.report.passed else "FAIL ") + args.command
          + " -> " + report_path)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
