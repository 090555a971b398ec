"""Property tests of the exit-code contract, run in-process through the CLI.

The walker: every value-taking flag of every subcommand declares its domain
as its argparse `type=`, and the walker reads those domains off
`cli.build_parser()`.  It draws each flag from its domain at small sizes and
checks the exit code and the report, and it runs every value just outside
each domain and checks that the parser refuses it by name.  A flag whose
type has no strategy here fails the walk, so no flag goes unfuzzed.

The per-command tests below draw wider ranges on the routes they name.

Chain commands: random small chains, strides, steps and friction.  Strides
up to 80 on chains of up to 32 sites reach both shapes of the stride
kernel's windows: wrapped (2 stride + 3 > N) and banded.  Run lengths are
drawn as 8 to 40 strides (at most 3200 steps), so chain-dispersion has the
8 snapshots its spectrum needs.

Oscillator commands: coherent, commutator and variation at small
truncations and generator counts, with the edges --nmax 0, --omega 0 and
--count 0 among the fixed examples.

Sampling commands: gram (Monte Carlo route) and ensemble at truncations up
to 20 and 2 to 5000 draws, with the point-block edges 4095, 4096 and 4097
among the fixed examples.

evolve: truncations -1 to 40, circle radii log-uniform over 1e-3 to 1e30
(far past where the series overflows), grids of 0 to 64 angles and 0 to 5
times.
"""

import argparse
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from thermofock import cli  # noqa: E402

CHECKS = {
    "chain-dispersion": ["all-modes-resolved",
                         "dispersion-peaks-within-resolution"],
    "relax": ["mode-envelope-rates", "energy-exponential-decay",
              "energy-monotone-nonincreasing"],
    "relax-control": ["control-energy-conserved"],
    "coherent": ["coherent-norm-completeness", "coherent-kernel-pairing",
                 "coherent-ladder-eigenvalue"],
    "commutator": ["ladder-commutator-interior",
                   "position-momentum-commutator-interior",
                   "commutator-trace-zero", "ordering-gap-half-quantum"],
    "variation": ["antisymmetric-defect", "taylor-slope-second-order"],
    "evolve": ["transport-vs-schrodinger", "schrodinger-normal-vs-exact",
               "symmetric-global-phase"],
    "gram": ["gram-quadrature-identity", "gram-montecarlo-3se"],
    "ensemble": ["ensemble-mean-trace", "ensemble-second-moment",
                 "sampler-efficiency"],
    "damp": ["envelope-rate-fit", "envelope-ratio-ten-cycles",
             "closed-form-vs-leapfrog", "long-time-decay",
             "control-energy-constant", "control-leapfrog-energy",
             "fock-amplitudes-monotone"],
    "partition": ["analytic-action-cell", "montecarlo-action-cell-1pct",
                  "montecarlo-action-cell-4se"],
    "tilt": ["tilt-mean-shift", "tilt-variance-unchanged",
             "tilt-components-uncorrelated"],
    "sphere": ["sphere-radial-exponential", "sphere-angle-uniform",
               "sphere-area-matches-action-cell"],
    "continuum": ["zone-center-exact", "error-quarters-when-spacing-halves",
                  "massless-linear-dispersion"],
    "rescale": ["mode-sum-diagonalizes-energy",
                "rescaled-single-frequency-energy", "mode-transform-roundtrip",
                "zero-mode-unrescaled", "uniform-action-equipartition"],
    "mode-commutator": ["cross-mode-commutators-vanish",
                        "same-mode-commutator-exact"],
}
FAILURES = {cli.EXIT_NUMERICAL: ["numerical-failure"],
            cli.EXIT_INTERNAL: ["internal-error"]}
DT_BOUND = 2.0 / math.sqrt(5.0)     # 2 / w_max at the default stiffnesses


def evaluate(argv):
    """cli.evaluate on argv, in memory; a value the parser refuses is the
    exit 2 of `main`."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return cli.Outcome(exc.code, None)
    return cli.evaluate(args)


def assert_contract(argv, key):
    """Evaluate argv; its exit code must be in the contract, and its report
    must carry the complete check set of `key` (or the failure record of
    exit 3 or 4) and agree with the exit code.  Every check's verdict must
    be |measured - oracle| <= tolerance, recomputed from the report.
    Returns the outcome."""
    outcome = evaluate(argv)
    code = outcome.code
    assert code in (0, 1, 2, 3, 4), argv
    if code == cli.EXIT_USAGE:
        return outcome
    checks = outcome.report.checks
    names = [check.name for check in checks]
    if code in FAILURES:
        assert names == FAILURES[code], argv
    else:
        assert names == CHECKS[key], argv
        assert outcome.report.passed == (code == cli.EXIT_PASS)
        for check in checks:
            gap = abs(check.measured - check.oracle)
            assert check.passed == (gap <= check.tolerance), (argv, check)
    return outcome


# -- the walker ------------------------------------------------------------------

def _small_real(domain):
    """Finite floats in domain, at most 3 above its floor and, when the floor
    is open, at least 0.05 above it: a step, rate or duration near 0 would
    make a run of millions of steps, not a small one."""
    if domain.low == -math.inf:
        return st.floats(-3.0, 3.0)
    inside = st.floats(domain.low + 0.05, domain.low + 3.0)
    return st.just(domain.low) | inside if domain.closed else inside


def _spacings(domain):
    return (st.lists(st.floats(0.05, 2.0), min_size=2, max_size=4, unique=True)
            .map(lambda values: ",".join(map(repr, sorted(values, reverse=True)))))


# in-domain strategy and out-of-domain edges, by domain type; a type missing
# here (a bare `type=float`, say) fails the walk
DOMAINS = {
    cli.Real: (
        lambda d: _small_real(d).map(repr),
        lambda d: ["nan", "inf", "-inf"] + (
            [] if d.low == -math.inf else
            [repr(d.low - 1.0), repr(math.nextafter(d.low, -math.inf))]
            + ([] if d.closed else [repr(d.low)]))),
    cli.Count: (
        lambda d: st.integers(d.low, d.low + 12).map(str),
        lambda d: [str(d.low - 1), "-1", "nan", "inf", f"{d.low}.5"]),
    cli.PowerOfTwo: (
        lambda d: st.sampled_from([d.low << k for k in range(5)]).map(str),
        lambda d: [str(d.low - 1), str(d.low + 1), str(3 * d.low), "0", "-1",
                   "nan"]),
    cli.Complex: (
        lambda d: st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                                     allow_infinity=False).map(repr),
        lambda d: ["nan", "inf", "1+nanj", "-infj", "1+"]),
    cli.Spacings: (
        _spacings,
        lambda d: ["1", "0.5,1", "1,1", "1,0", "1,-0.5", "1,nan", "inf,1"]),
}


def flag_table():
    """command -> [(flag, domain, required, default)] for every flag but
    --outdir, read off the parser."""
    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction))
    return {command: [(action.option_strings[-1], action.type,
                       action.required, action.default)
                      for action in subparser._actions
                      if action.option_strings
                      and action.dest not in ("help", "outdir")]
            for command, subparser in sub.choices.items()}


TABLE = flag_table()


def _domain(command, flag, domain):
    assert type(domain) in DOMAINS, (
        f"{command} {flag}: no domain strategy for type {domain!r}")
    return DOMAINS[type(domain)]


def test_every_value_flag_declares_its_domain():
    assert len(TABLE) == 15
    for command, flags in TABLE.items():
        for flag, domain, _, _ in flags:
            _domain(command, flag, domain)


@pytest.mark.parametrize("command", sorted(TABLE))
@pytest.mark.filterwarnings("ignore:damping is not small")
@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_walker_keeps_the_exit_code_contract(command, data):
    """Every flag with a default is drawn from its domain; a flag without
    one (a derived default, an optional seed, --threads) is drawn or left
    out.  An in-domain draw never stops at the parser: an exit 2 comes from
    a runner's cross-flag rule.  Nor is it ever an internal error."""
    argv, values = [command], {}
    for flag, domain, required, default in TABLE[command]:
        if not required and default is None and not data.draw(st.booleans()):
            continue
        values[flag] = data.draw(_domain(command, flag, domain)[0](domain),
                                 label=flag)
        argv.append(f"{flag}={values[flag]}")
    key = command
    if command == "relax" and float(values["--alpha"]) == 0:
        key = "relax-control"
    outcome = assert_contract(argv, key)
    assert outcome.code != cli.EXIT_INTERNAL, (argv, outcome.error)
    if outcome.code == cli.EXIT_USAGE:
        assert outcome.error.startswith("usage error: --"), (argv, outcome.error)


def test_every_out_of_domain_edge_exits_two_naming_its_flag(usage_error):
    for command, flags in TABLE.items():
        required = [f"{flag}=1" for flag, _, needed, _ in flags if needed]
        for flag, domain, _, _ in flags:
            for edge in _domain(command, flag, domain)[1](domain):
                usage_error([command, *required, f"{flag}={edge}"],
                            f"argument {flag}")


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["relax", "chain-dispersion"]),
       sites=st.sampled_from([2, 4, 8, 16, 32]),
       stride=st.integers(1, 80),
       dt_fraction=st.floats(0.02, 0.99),
       alpha=st.floats(0.0, 0.1),
       snapshots=st.integers(8, 40))
def test_chain_commands_keep_the_exit_code_contract(command, sites, stride,
                                                    dt_fraction, alpha,
                                                    snapshots):
    dt = dt_fraction * DT_BOUND
    span = snapshots * stride * dt
    argv = [command, "--sites", str(sites), "--stride", str(stride),
            "--dt", repr(dt), "--seed", "3"]
    if command == "relax":
        argv += ["--alpha", repr(alpha), "--t-max", repr(span)]
    else:
        # the k = 0 mode has w = 1 at the default stiffnesses
        argv += ["--periods", repr(span / (2.0 * math.pi))]
    key = "relax-control" if command == "relax" and alpha == 0 else command
    assert_contract(argv, key)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["coherent", "commutator", "variation"]),
       nmax=st.integers(-1, 24),
       hbar=st.floats(0.05, 4.0),
       omega=st.floats(0.0, 4.0),
       c=st.complex_numbers(max_magnitude=3.0, allow_nan=False,
                            allow_infinity=False),
       pairs=st.integers(1, 3),
       count=st.integers(-2, 12))
@example(command="coherent", nmax=0, hbar=1.0, omega=1.0, c=0.5, pairs=2,
         count=1)
@example(command="commutator", nmax=0, hbar=1.0, omega=1.0, c=0.5, pairs=2,
         count=1)
@example(command="commutator", nmax=8, hbar=1.0, omega=0.0, c=0.5, pairs=2,
         count=1)
@example(command="variation", nmax=8, hbar=1.0, omega=1.0, c=0.5, pairs=2,
         count=0)
@example(command="variation", nmax=8, hbar=1.0, omega=0.0, c=0.5, pairs=2,
         count=3)
def test_oscillator_commands_keep_the_exit_code_contract(command, nmax, hbar,
                                                         omega, c, pairs,
                                                         count):
    if command == "coherent":
        # "--c=" keeps argparse from taking a leading minus for a flag
        argv = ["coherent", "--nmax", str(nmax), "--hbar", repr(hbar),
                f"--c={c!r}"]
    elif command == "commutator":
        argv = ["commutator", "--nmax", str(nmax), "--hbar", repr(hbar),
                "--omega", repr(omega)]
    else:
        argv = ["variation", "--pairs", str(pairs), "--count", str(count),
                "--omega", repr(omega), "--seed", "3"]
    assert_contract(argv, command)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["gram", "ensemble"]),
       nmax=st.integers(0, 20),
       samples=st.integers(2, 5000),
       hbar=st.floats(0.05, 4.0))
@example(command="gram", nmax=16, samples=4095, hbar=1.0)
@example(command="gram", nmax=0, samples=4096, hbar=0.3)
@example(command="gram", nmax=20, samples=4097, hbar=2.5)
@example(command="ensemble", nmax=16, samples=4095, hbar=1.0)
@example(command="ensemble", nmax=0, samples=4096, hbar=0.3)
@example(command="ensemble", nmax=20, samples=4097, hbar=2.5)
def test_sampling_commands_keep_the_exit_code_contract(command, nmax, samples,
                                                       hbar):
    argv = [command, "--nmax", str(nmax), "--hbar", repr(hbar),
            "--samples", str(samples), "--seed", "3"]
    assert_contract(argv, command)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(nmax=st.integers(-1, 40),
       log_radius=st.floats(-3.0, 30.0),
       grid=st.integers(0, 64),
       n_times=st.integers(0, 5),
       hbar=st.floats(0.05, 4.0))
@example(nmax=24, log_radius=0.0, grid=64, n_times=5, hbar=1.0)
@example(nmax=1, log_radius=-3.0, grid=4, n_times=1, hbar=0.05)
@example(nmax=40, log_radius=30.0, grid=64, n_times=5, hbar=4.0)
def test_evolve_keeps_the_exit_code_contract(nmax, log_radius, grid, n_times,
                                             hbar):
    argv = ["evolve", "--nmax", str(nmax), "--radius", repr(10.0 ** log_radius),
            "--grid", str(grid), "--n-times", str(n_times),
            "--hbar", repr(hbar), "--seed", "3"]
    assert_contract(argv, "evolve")
