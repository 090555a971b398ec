"""Property tests of the exit-code contract, run in-process through cli.main.

Chain commands: random small chains, strides, steps and friction.  Strides
up to 80 on chains of up to 32 sites reach both integration routes, the
stencil (2N > stride) and the stride map (2N <= stride).  Run lengths are
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

import json
import math
import os
import tempfile

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
}
FAILURES = {cli.EXIT_NUMERICAL: ["numerical-failure"],
            cli.EXIT_INTERNAL: ["internal-error"]}
DT_BOUND = 2.0 / math.sqrt(5.0)     # 2 / w_max at the default stiffnesses


def assert_contract(argv, key):
    """Run argv; its exit code must be in the contract, and a report must
    carry the complete check set of `key` (or the failure record of exit 3
    or 4) and agree with the exit code.  An argument argparse rejects exits
    2 through SystemExit."""
    command = argv[0]
    with tempfile.TemporaryDirectory() as outdir:
        try:
            code = cli.main(argv + ["--outdir", outdir])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, 1, 2, 3, 4), argv
        if code == cli.EXIT_USAGE:
            return
        path = os.path.join(outdir, command.replace("-", "_") + "_report.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    names = [check["name"] for check in report["checks"]]
    if code in FAILURES:
        assert names == FAILURES[code], argv
    else:
        assert names == CHECKS[key], argv
        assert report["passed"] == (code == cli.EXIT_PASS)


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
