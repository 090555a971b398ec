"""End-to-end checks of the command-line harness: exit codes, report files,
CSV outputs, and run-to-run reproducibility."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest

from thermofock import cli
from thermofock.reports import ExperimentReport


def run_cli(*args, outdir=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    cmd = [sys.executable, "-m", "thermofock.cli", *args]
    if outdir is not None:
        cmd += ["--outdir", str(outdir)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


def read_report(outdir, command):
    path = os.path.join(str(outdir), command.replace("-", "_") + "_report.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def evaluate(*argv):
    """One in-process run of argv, in memory."""
    return cli.evaluate(cli.build_parser().parse_args(argv))


def _checks(*argv):
    """The checks of one in-process run, by name."""
    return {check.name: check for check in evaluate(*argv).report.checks}


def test_gram_passes_and_writes_artifacts(tmp_path):
    proc = run_cli("gram", "--nmax", "12", "--hbar", "1.0", outdir=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = read_report(tmp_path, "gram")
    assert report["schema_version"]
    assert report["command"] == "gram"
    assert all(check["passed"] for check in report["checks"])
    assert (tmp_path / "gram_quadrature.csv").exists()
    assert "[PASS] gram-quadrature-identity" in proc.stdout
    assert proc.stdout.strip().endswith(
        "PASS gram -> " + str(tmp_path / "gram_report.json"))


def test_partition_monte_carlo_example(tmp_path):
    proc = run_cli("partition", "--beta", "1", "--omega", "1",
                   "--samples", "200000", "--seed", "7", outdir=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = read_report(tmp_path, "partition")
    names = [check["name"] for check in report["checks"]]
    assert "analytic-action-cell" in names
    assert "montecarlo-action-cell-1pct" in names
    assert (tmp_path / "partition_results.csv").exists()


# a truncated pairing is held to exp's Lagrange remainder at --nmax, so a
# small --nmax or a large --c passes too
@pytest.mark.parametrize("argv", [("--c", "0.3+0.4j"), ("--nmax", "4"),
                                  ("--nmax", "12", "--c", "3")],
                         ids=["complex-c", "nmax-4", "nmax-12-c-3"])
def test_coherent_accepts_complex_literals(argv):
    assert evaluate("coherent", *argv).code == cli.EXIT_PASS


def test_relax_control_run_without_damping(tmp_path):
    proc = run_cli("relax", "--alpha", "0", "--sites", "16",
                   "--t-max", "50", "--seed", "5", outdir=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "relax_energy.csv").exists()


def test_damp_energies_survive_a_tiny_amplitude():
    # at --q0 1e-300 the squared amplitudes underflow to 0, and the energy
    # drifts read 0/0 = NaN; scaled by a power of two they are plain ratios
    outcome = evaluate("damp", "--q0", "1e-300")
    assert outcome.code == cli.EXIT_PASS, outcome.error
    checks = {c.name: c for c in outcome.report.checks}
    for name in ("control-energy-constant", "control-leapfrog-energy"):
        assert math.isfinite(checks[name].measured)


def test_usage_errors_exit_two(tmp_path, usage_error):
    # where the entry point matters: no subcommand at all, an unknown one,
    # a required seed left out entirely
    assert run_cli().returncode == 2
    assert run_cli("frobnicate", outdir=tmp_path).returncode == 2
    proc = run_cli("relax", "--alpha", "0", outdir=tmp_path)
    assert proc.returncode == 2 and "--seed" in proc.stderr
    # a value outside its flag's domain stops at the parser, and the fuzz
    # walker runs every such edge; these are the rules across flags, which
    # the runners apply
    for argv, flags in (
            # the squared norm exp(hbar |c|^2) of the coherent tilt
            # overflows; past |c| ~ 1.3e154 even |c|^2 does
            (["coherent", "--c", "30", "--nmax", "400"], "--c/--hbar"),
            (["coherent", "--c", "1e200"], "--c/--hbar"),
            (["coherent", "--c", "1e200j"], "--c/--hbar"),
            # the pairing's truncation bound reaches |exp(x)|, so its check
            # would pass any finite pairing; at --hbar 1e6 exp(x) overflows
            (["coherent", "--hbar", "3000", "--c", "0.3"], "--nmax"),
            (["coherent", "--hbar", "1e6", "--c", "0.02"], "--nmax"),
            (["ensemble", "--seed", "1", "--c", "1e200"], "--c/--hbar"),
            # the truncated state's own mean lies 160 se from hbar conj(c)
            (["ensemble", "--nmax", "2", "--c", "1.2", "--seed", "7"], "--nmax"),
            (["tilt", "--seed", "1", "--c", "1e200"], "--c/--beta/--omega"),
            (["damp", "--q0", "1e200"], "--q0/--v0/--hbar"),
            # Monte Carlo without a seed is refused, not silently seeded
            (["gram", "--samples", "1000"], "--seed"),
            # friction that is not underdamped (alpha >= 2 omega)
            (["ensemble", "--seed", "1", "--alpha", "2"], "--alpha"),
            (["damp", "--alpha", "2"], "--alpha"),
            # one distinct step, no Taylor slope to fit
            (["variation", "--seed", "1", "--dt-min", "1e-3",
              "--dt-max", "1e-3"], "--dt-min"),
            # a wavenumber outside the coarsest lattice's Brillouin zone
            (["continuum", "--k-phys", "10"], "--k-phys"),
            # an oscillator at rest has no decay to measure
            (["damp", "--q0", "0", "--v0", "0"], "--q0"),
            # too few snapshots for a spectrum
            (["chain-dispersion", "--seed", "1", "--sites", "16",
              "--periods", "0.1"], "--periods")):
        usage_error(argv, flags)


def test_failed_check_exits_one_and_reports_it(tmp_path):
    # 30 samples cannot hit the 1% band: the run completes, the check fails
    proc = run_cli("partition", "--samples", "30", "--seed", "1",
                   outdir=tmp_path)
    assert proc.returncode == 1
    report = read_report(tmp_path, "partition")
    assert not all(check["passed"] for check in report["checks"])
    assert "FAIL" in proc.stdout


_INTERIOR = ("ladder-commutator-interior",
             "position-momentum-commutator-interior")


@pytest.mark.parametrize("hbar, nmax", [(1, 16), (0.5, 32), (2, 64), (1, 64)])
def test_a02_commutator_tolerance_stays_at_its_floor(hbar, nmax):
    # the scaled term 4 eps nmax hbar is at most 1.1e-13 at a02's invocations
    scaled = 4.0 * sys.float_info.epsilon * nmax * hbar
    print(f"hbar {hbar}, nmax {nmax}: scaled term {scaled:.3g}, floor 1e-12")
    assert scaled <= 1.2e-13
    checks = _checks("commutator", "--hbar", str(hbar), "--nmax", str(nmax))
    for name in _INTERIOR:
        assert checks[name].tolerance == 1e-12 and checks[name].passed


@pytest.mark.parametrize("hbar", [0.25, 4, 64, 100])
def test_commutator_interior_verdicts_hold_at_every_hbar(hbar):
    # residual / hbar is the same at every power-of-four hbar, and the
    # tolerance grows with the entries once 4 eps nmax hbar passes 1e-12
    checks = _checks("commutator", "--hbar", str(hbar), "--nmax", "64")
    for name in _INTERIOR:
        assert checks[name].passed, cli.format_check(checks[name])
        assert checks[name].tolerance == max(
            1e-12, 4.0 * sys.float_info.epsilon * 64 * hbar)
    ladder = checks["ladder-commutator-interior"].measured
    if hbar in (0.25, 4, 64):
        unit = _checks("commutator", "--hbar", "1", "--nmax", "64")
        assert ladder / hbar == unit["ladder-commutator-interior"].measured


def test_damped_ensemble_passes_against_the_exact_flow():
    # at alpha = 0.05 a first-order oracle (one damped branch) reads 6.85 se
    # off the mean at this seed; the exact underdamped flow passes
    outcome = evaluate("ensemble", "--alpha", "0.05", "--seed", "3")
    assert outcome.code == cli.EXIT_PASS, outcome.error


def test_strongly_damped_closed_form_tracks_the_leapfrog_silently(tmp_path):
    # at alpha = 0.5 omega the exact flow tracks the orbit to 2.8e-5 and
    # nothing warns; the two envelope checks assume alpha << omega, so the
    # run exits 1
    proc = run_cli("damp", "--alpha", "0.5", outdir=tmp_path)
    assert proc.returncode == cli.EXIT_CHECK_FAILURE, proc.stderr
    assert proc.stderr == ""
    checks = {check["name"]: check
              for check in read_report(tmp_path, "damp")["checks"]}
    assert checks["closed-form-vs-leapfrog"]["passed"]
    assert checks["closed-form-vs-leapfrog"]["measured"] < 1e-4


def test_damp_orbit_refusals_come_before_a_step(monkeypatch,
                                               no_leapfrog_step):
    # an orbit of --t-max 1e300, and one whose 5094 default snapshots, 4
    # floats each in their closed-form flows, are one float over the cap:
    # each is refused before the leapfrog takes a step; at the cap the run
    # reaches the leapfrog, and unpatched it passes.  A step at the
    # leapfrog's stability bound w dt = 2 is refused by leapfrog_map itself
    from thermofock import errors

    def refused(error, *argv):
        outcome = evaluate("damp", *argv)
        assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
        assert outcome.report.checks[0].measured.startswith(error)

    refused("StabilityError", "--dt", "2")
    with monkeypatch.context() as patch:
        no_leapfrog_step(patch)
        refused("CapacityError", "--t-max", "1e300")
        patch.setattr(errors, "MAX_SNAPSHOT_FLOATS", 4 * 5094 - 1)
        refused("CapacityError")
        patch.setattr(errors, "MAX_SNAPSHOT_FLOATS", 4 * 5094)
        outcome = evaluate("damp")
        assert outcome.code == cli.EXIT_INTERNAL
        assert "a leapfrog step was taken" in outcome.error
    monkeypatch.setattr(errors, "MAX_SNAPSHOT_FLOATS", 4 * 5094)
    assert evaluate("damp").code == cli.EXIT_PASS


def test_few_sample_ensemble_is_no_sampler_collapse():
    # the first chunk of 10 000 proposals accepts thousands of draws for 5
    # samples; counting only the 5 kept ones read as an efficiency collapse
    assert _checks("ensemble", "--samples", "5", "--seed", "1")[
        "sampler-efficiency"].passed


@pytest.mark.parametrize("args", [("tilt", "--beta", "1e300", "--seed", "1"),
                                  ("tilt", "--omega", "1e300", "--seed", "1"),
                                  ("chain-dispersion", "--beta", "1e300",
                                   "--seed", "42")])
def test_runs_at_a_tiny_hbar_pass(tmp_path, args):
    # hbar = 1/(beta omega) = 1e-300: the tilt's covariance spread is taken
    # without the product of the variances, which underflows, and the
    # chain's spectral peaks are weighed against the largest one alone
    proc = run_cli(*args, outdir=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stderr == ""


@pytest.mark.parametrize("args", [("--omega", "1e-200"),
                                  ("--omega", "1e-300", "--alpha", "1e-301")])
def test_ensemble_at_tiny_omega_completes(args):
    # omega^2 underflows to 0; the oracle's frequency must not divide by it
    outcome = evaluate("ensemble", "--seed", "1", *args)
    assert outcome.code == cli.EXIT_PASS, outcome.error


# numpy's overflow, division by zero and invalid operation raise under
# cli.evaluate, so none of these runs warns on its way to exit 3
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_failure_exits_three_with_diagnostic_report(tmp_path, capsys):
    def exits_three(command, *args, names=""):
        start = time.perf_counter()
        code = cli.main([command, *args, "--outdir", str(tmp_path)])
        assert time.perf_counter() - start < 5.0, (command, args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL, (command, args, err)
        assert "numerical failure" in err
        assert names in err, (command, args, err)
        report = read_report(tmp_path, command)
        assert [check["name"] for check in report["checks"]] == ["numerical-failure"]
        assert not report["checks"][0]["passed"]

    # dt far beyond the stability bound: aborted with a diagnostic, not NaNs;
    # a thermal state so hot its energy overflows leaves no finite energy cap;
    # at hbar = 1e-300 the ensemble's |z|^2 standard error underflows to 0;
    # on a circle of radius 1e20 the state's series overflows
    for command, *args in (
            ("relax", "--alpha", "0.01", "--dt", "100", "--seed", "1"),
            ("relax", "--alpha", "0", "--beta", "1e-308", "--seed", "5",
             "--t-max", "5"),
            ("ensemble", "--seed", "1", "--hbar", "1e-300"),
            ("evolve", "--seed", "1", "--radius", "1e20"),
            ("evolve", "--seed", "1", "--radius", "1e200"),
            # at or past the leapfrog's stability bound w dt = 2
            ("damp", "--dt", "2"),
            ("damp", "--dt", "2.5"),
            ("damp", "--dt", "1e3"),
            # every energy change underflows to 0: no log-log slope
            ("variation", "--seed", "1", "--dt-min", "1e-300",
             "--dt-max", "1e-299"),
            # in-domain flags whose derived quantities leave the float
            # range: a run length 10/alpha of inf, hbar = 1/(beta omega) of
            # 0, a thermal state too hot to be finite, a coupling 1/a^2 of
            # inf
            ("relax", "--seed", "1", "--alpha", "1e-320"),
            ("mode-commutator", "--beta", "1e200", "--omega0", "1e200"),
            ("rescale", "--seed", "1", "--beta", "1e-320"),
            ("rescale", "--seed", "1", "--gamma", "5e-324"),
            # Z = h^2 of two pairs near 4e-599
            ("partition", "--seed", "1", "--pairs", "2", "--omega", "1e300"),
            ("continuum", "--spacings", "1,1e-160"),
            # a radius sqrt(hbar/2) of inf; a period 2 pi/omega and a run
            # 5/alpha of inf, whose step count inf/inf is NaN
            ("sphere", "--seed", "1", "--beta", "1e-320"),
            ("sphere", "--seed", "1", "--omega", "1e-320"),
            ("damp", "--omega", "1e-320"),
            # times whose squares underflow leave the decay fit no norm
            ("relax", "--seed", "1", "--alpha", "1e300"),
            ("relax", "--seed", "1", "--t-max", "1e-320"),
            ("damp", "--omega", "1e300"),
            # a subnormal initial amplitude, whose closed-form orbit
            # rounds to a few subnormal steps
            ("damp", "--q0", "5e-324"),
            ("damp", "--q0", "1e-315"),
            # more snapshots than the buffer cap, or more cloud steps than
            # the step cap: refused before a step
            ("chain-dispersion", "--seed", "1", "--periods", "1e300"),
            ("damp", "--t-max", "1e300"),
            ("ensemble", "--seed", "1", "--t-max", "1e300")):
        exits_three(command, *args)
    # a subnormal mass or spacing: the chain names the derived quantity
    # that left the float range, where numpy's message named an operation
    for flag, quantity in (
            ("--mass", "top mode frequency sqrt((gamma + 4 gamma_c)/m) = inf"),
            ("--spacing", "zone boundary pi/a = inf")):
        for command in ("chain-dispersion", "rescale", "relax"):
            exits_three(command, "--seed", "1", flag, "5e-324",
                        names=quantity)
    # a subnormal gamma: a mode's displacement variance is not finite,
    # refused before the state's energy q . q overflows.  chain-dispersion's
    # 200 periods of its k = 0 mode, 2.8e+162 each, are refused before the
    # draw at the chain's step cap; 1e-160 periods (5700 steps) reach it
    for command, *run in (("chain-dispersion", "--periods", "1e-160"),
                          ("rescale",), ("relax",)):
        exits_three(command, *run, "--gamma", "5e-324", "--seed", "1",
                    names=("mode displacement variance 1/(2 beta m w^2) = "
                           "inf must be finite"))
    exits_three("chain-dispersion", "--gamma", "5e-324", "--seed", "1",
                names="leapfrog steps a snapshot x 9.42e+164 snapshots")
    # a run length 10/omega of inf, a phase rate 1/hbar of inf, and the
    # gradient's products at omega 1e300 or the energy a step of 1e300
    # reaches: each named before numpy meets it, where numpy's message
    # named an operation
    for args, quantity in (
            (("evolve", "--omega", "1e-320"),
             "run length 10/omega = inf must be finite"),
            (("evolve", "--omega", "5e-324"),
             "run length 10/omega = inf must be finite"),
            (("evolve", "--hbar", "5e-324"),
             "phase rate 1/hbar = inf must be finite"),
            (("variation", "--omega", "1e300"),
             "first-order energy change grad H . Omega grad H = inf must be "
             "finite"),
            (("variation", "--dt-min", "1e300"),
             "energy H(x + Omega grad H dt) = inf at dt = 1e+300 must be "
             "finite"),
            (("variation", "--dt-max", "1e300"),
             "energy H(x + Omega grad H dt) = inf at dt = 1e+186 must be "
             "finite")):
        exits_three(*args, "--seed", "1", names=quantity)
    # a derived quantity that underflows to 0 or overflows, named before
    # Python's arithmetic meets it, where Python's message named an
    # operation: a default friction 0.01 omega, the ensemble's standard
    # errors (friction contracts the cloud until its spread underflows),
    # dispersion errors below the rounding of w^2, squares that ** would
    # raise on or 1/a^2 would divide by, and step counts that math.ceil would
    for args, quantity in (
            (("damp", "--omega=5e-324"),
             "default friction 0.01 omega = 0 must be positive and finite"),
            (("ensemble", "--hbar=5e-324", "--seed=1"),
             "standard error sqrt(hbar/(2 samples)) of the mean = 0 must be "
             "positive and finite"),
            (("ensemble", "--hbar=1e-300", "--seed=1"),
             "at t = 0, the least standard error of the moments = 0 must be "
             "positive and finite"),
            (("ensemble", "--alpha=1.9", "--t-max=400", "--samples=100",
              "--n-times=2", "--seed=1"),
             "at t = 400, the least standard error of the moments = 0"),
            (("continuum", "--k-phys=1e-300"),
             "dispersion error of the a = 1 chain = 0 must be positive and "
             "finite"),
            (("continuum", "--k-phys=1e-4"),
             "dispersion error of the a = 1 chain = 0"),
            (("continuum", "--field-mass=1e300"),
             "on-site stiffness M^2 = inf must be finite"),
            (("continuum", "--spacings=1e-300,1e-301", "--k-phys=1"),
             "squared spacing a^2 of the a = 1e-300 chain = 0 must be "
             "positive and finite"),
            (("continuum", "--spacings=1e200,1e100", "--k-phys=1e-201"),
             "squared spacing a^2 of the a = 1e+200 chain = inf must be "
             "positive and finite"),
            (("continuum", "--spacings=1e160,1e159", "--k-phys=1e-161"),
             "squared spacing a^2 of the a = 1e+160 chain = inf must be "
             "positive and finite"),
            (("chain-dispersion", "--dt=5e-324", "--seed=1"),
             "step count duration/dt = 1256.64/4.94066e-324 = inf must be "
             "finite"),
            (("relax", "--dt=5e-324", "--seed=1"),
             "step count duration/dt = 1000/4.94066e-324 = inf must be "
             "finite"),
            (("ensemble", "--omega=1e10", "--t-max=1e300", "--seed=1"),
             "step count interval/dt = 5.26316e+298/6.13592e-13 = inf must "
             "be finite")):
        exits_three(*args, names=quantity)
    # a step count past the largest float, named by errors.figure at the
    # step cap, where formatting it ended on Python's own text
    for args, steps in ((("--t-max=1e307",), "1.63e+309"),
                        (("--omega=1e300", "--t-max=1.46e6", "--n-times=3"),
                         "2.38e+308")):
        exits_three("ensemble", *args, "--seed=1", names=(
            f"{steps} leapfrog steps are over the cap of 4194304 a run"))
    # the top entry of the lowering matrix or of the Hamiltonian's levels
    # overflows: named, where numpy's message named an operation
    for value in ("1e307", "1.7976931348623157e308"):
        exits_three("commutator", "--hbar", value, names=(
            "top squared ladder entry n_max hbar = inf must be finite"))
        for args in (("commutator", "--omega", value),
                     ("evolve", "--seed", "1", "--hbar", value),
                     ("evolve", "--seed", "1", "--omega", value)):
            exits_three(*args, names=(
                "top energy hbar omega n_max = inf must be finite"))
    # gamma 1e-300 against gamma_c 1: the zero mode's displacement spread
    # buries every other mode's under its rounding, refused before the draw
    # where relax went on to blame dt for the energy the rounding made
    for command in ("relax", "rescale"):
        exits_three(command, "--gamma=1e-300", "--seed=1", names=(
            "mode displacement variances 1/(2 beta m w^2) from 0.125 to "
            "5e+299 span more than 1/eps^2 = 2.03e+31"))
    # times whose squares overflow leave the decay fit no norm either
    exits_three("damp", "--omega", "1e-300", names=(
        "decay fit needs finite amplitudes and a finite, nonzero norm of "
        "the times"))
    # the quadrature Gram's rule: numpy 2.4.6's 187-node Gauss-Laguerre
    # weights overflow, refused by name and without a numpy warning (the
    # node count where they overflow may move with numpy and LAPACK)
    exits_three("gram", "--nmax", "186",
                names="187-node Gauss-Laguerre rule of truncation 186")
    # the sampler's expected acceptance 1/bound below its 1e-3 floor is
    # refused before a draw: both runs collapsed after 10 000 of them
    for args, efficiency in (
            (("--c", "2.5", "--seed", "7"), "7.08e-07"),
            (("--c", "3", "--seed", "7"), "1.66e-13")):
        exits_three("ensemble", *args, names=(
            f"expected rejection efficiency 1/bound = {efficiency} below 1e-3"))
    # refused where the overflow is derived, before numpy meets it: an
    # action cell 2 pi/(beta omega) and a radius sqrt(hbar/2) of 0, the
    # sphere map's scale 2 beta R^2 subnormal or inf, one period of inf,
    # the cloud's run length
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exits_three("partition", "--seed", "1", "--beta", "1e300",
                    "--omega", "1e300", "--samples", "1000")
        exits_three("sphere", "--seed", "1", "--beta", "1e300",
                    "--omega", "1e300")
        exits_three("sphere", "--seed", "1", "--radius2", "5e-324")
        exits_three("sphere", "--seed", "1", "--radius2", "1e300",
                    "--beta", "1e300")
        exits_three("ensemble", "--seed", "1", "--omega", "1e-320")


def test_oversize_truncation_exits_three(monkeypatch):
    # the cap on truncation-sized arrays, patched down to one dense 17 x 17
    # complex matrix: every --nmax that would build more is a numerical
    # failure, refused before numpy is asked for the memory
    from thermofock import errors

    # at the real cap too: a 1e6-node Gauss-Laguerre rule would ask numpy
    # for an 8 TB companion matrix before its weights could be checked
    outcome = evaluate("gram", "--nmax", "1e6")
    assert outcome.code == cli.EXIT_NUMERICAL, outcome.error
    assert "CapacityError" in outcome.report.checks[0].measured
    monkeypatch.setattr(errors, "MAX_SNAPSHOT_FLOATS", 2 * 17 ** 2)
    assert evaluate("commutator", "--nmax", "16").code == cli.EXIT_PASS
    for argv in (("commutator", "--nmax", "17"),
                 ("gram", "--nmax", "17"),
                 ("evolve", "--nmax", "17", "--seed", "1"),
                 ("coherent", "--nmax", "17"),
                 ("damp", "--nmax", "300")):
        outcome = evaluate(*argv)
        assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
        assert "CapacityError" in outcome.report.checks[0].measured


def test_oversize_sample_exits_three():
    # the arrays --samples sizes, one float past the cap of 2**24 each: a
    # complex draw array (tilt, and the ensemble's cloud) or the two real
    # draw arrays of the sphere map, refused before they are allocated (a
    # missing check would allocate 130-260 MB here, and GBs at 1e9); and
    # the 2n x 2n matrices --pairs sizes, 298 GiB each at 1e5 pairs
    from thermofock.errors import MAX_SNAPSHOT_FLOATS

    half = MAX_SNAPSHOT_FLOATS // 2
    for command, *args in (("tilt", "--samples", str(half + 1)),
                           ("ensemble", "--samples", str(half + 1)),
                           ("sphere", "--samples", str(MAX_SNAPSHOT_FLOATS + 1)),
                           ("tilt", "--samples", "1e9"),
                           ("sphere", "--samples", "1e9"),
                           ("ensemble", "--samples", "1e9"),
                           ("partition", "--pairs", "1e5"),
                           ("variation", "--pairs", "1e5")):
        start = time.perf_counter()
        outcome = evaluate(command, *args, "--seed", "1")
        assert time.perf_counter() - start < 5.0, (command, args)
        assert outcome.code == cli.EXIT_NUMERICAL, (command, args,
                                                    outcome.error)
        assert "CapacityError" in outcome.report.checks[0].measured


def test_flag_sized_arrays_are_refused_before_the_draw(monkeypatch):
    # the cap patched down to one dense 17 x 17 complex matrix, 578 floats:
    # evolve's grid profile and times, variation's defects and steps, and
    # the chain's thermal state are each refused one float past it, before
    # a random number is drawn (at 1e6 sites, steps or a truncation the
    # draw came first and ran for seconds to minutes)
    import numpy as np

    from thermofock import errors

    monkeypatch.setattr(errors, "MAX_SNAPSHOT_FLOATS", 2 * 17 ** 2)

    def no_draw(*args, **kwargs):
        raise AssertionError("a random generator was made")

    evolve = ("evolve", "--nmax", "4", "--grid", "16")
    variation = ("variation", "--count", "1")
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", no_draw)
        for argv, what in (
                (("evolve", "--nmax", "16", "--grid", "290"), "grid of 290"),
                ((*evolve, "--n-times", "579"), "579 times"),
                (("variation", "--count", "579"), "579 generators"),
                ((*variation, "--dt-count", "579"), "579 steps"),
                (("rescale", "--sites", "512"), "thermal state of 512"),
                (("relax", "--sites", "512"), "thermal state of 512"),
                (("chain-dispersion", "--sites", "512"),
                 "thermal state of 512")):
            outcome = evaluate(*argv, "--seed", "1")
            assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
            measured = outcome.report.checks[0].measured
            assert measured.startswith("CapacityError") and what in measured
    # at the cap each passes it
    for argv in (("evolve", "--nmax", "16", "--grid", "289"),
                 (*evolve, "--n-times", "578"),
                 ("variation", "--count", "578"),
                 (*variation, "--dt-count", "578"),
                 ("rescale", "--sites", "256")):
        outcome = evaluate(*argv, "--seed", "1")
        assert outcome.code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE), (
            argv, outcome.error)


def test_evolve_grid_must_resolve_every_harmonic(usage_error):
    # harmonic nmax of a grid of 2 nmax points or fewer lands in a negative
    # FFT bin, and transport-vs-schrodinger read 1.6e-7 for aliasing, not
    # physics: a usage error naming both flags, before the draw
    for flag in ("--grid", "--nmax"):
        usage_error(["evolve", "--nmax", "16", "--grid", "32", "--seed", "1"],
                    flag)
    check = _checks("evolve", "--nmax", "16", "--grid", "33", "--seed", "1")[
        "transport-vs-schrodinger"]
    assert check.passed and check.measured <= 1e-14


def test_short_chain_dispersion_is_refused_before_the_draw(monkeypatch,
                                                          usage_error):
    # the snapshot count follows from --periods, --dt and --stride alone
    # (chain.snapshot_count, the count integrate_chain takes): fewer than
    # the 8 a spectrum needs is a usage error before the thermal draw, which
    # at 65536 sites traced 16.8 MiB and took 0.6 s; an unstable step is
    # still refused first, a numerical failure
    from thermofock import chain

    def no_draw(*args, **kwargs):
        raise AssertionError("the thermal state was drawn")

    monkeypatch.setattr(chain, "sample_thermal_state", no_draw)
    usage_error(["chain-dispersion", "--sites", "65536", "--periods", "1e-3",
                 "--seed", "1"], "--periods")
    outcome = evaluate("chain-dispersion", "--periods", "1e-3", "--dt", "1",
                       "--seed", "1")
    assert outcome.code == cli.EXIT_NUMERICAL
    assert outcome.report.checks[0].measured.startswith("StabilityError")


def test_ensemble_fold_work_is_capped_before_the_draw(monkeypatch):
    # every particle block is folded into each requested time's moment sums,
    # also where time does not advance: --n-times 1e5 at --t-max 0 on one
    # block of 1000 particles ran 4.8 s and exited 0.  Times x blocks past
    # dynamics.MAX_CLOUD_FOLDS are refused before the interval maps and the
    # draw; at the cap a run passes
    import numpy as np

    from thermofock import dynamics

    def no_work(*args, **kwargs):
        raise AssertionError("the run went past its refusal")

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", no_work)
        patch.setattr(dynamics, "_interval_maps", no_work)
        for argv in (("--n-times", "1e5", "--t-max", "0", "--samples", "1000"),
                     ("--n-times", "8193", "--samples", "1000")):
            outcome = evaluate("ensemble", *argv, "--seed", "1")
            assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
            measured = outcome.report.checks[0].measured
            assert measured.startswith("CapacityError") and "folds" in measured
    # the cap patched down to 20 times of two blocks
    monkeypatch.setattr(dynamics, "MAX_CLOUD_FOLDS", 40)
    outcome = evaluate("ensemble", "--samples", "65537", "--seed", "1")
    assert outcome.code == cli.EXIT_NUMERICAL
    assert "60 moment folds" in outcome.report.checks[0].measured
    assert evaluate("ensemble", "--samples", "65536",
                    "--seed", "1").code == cli.EXIT_PASS


def test_ensemble_fold_cap_comes_before_the_times(monkeypatch, traced_peak):
    # --n-times 16000000 at 1000 samples passed the array cap and traced
    # 137 MiB, its times built, before the fold cap refused it: the fold
    # cap, which bounds the times too, comes before np.linspace, and the
    # refusal traces under 1 MiB
    import numpy as np

    argv = ("ensemble", "--n-times", "16000000", "--samples", "1000",
            "--seed", "1")

    def no_times(*args, **kwargs):
        raise AssertionError("the times were built")

    with monkeypatch.context() as patch:
        patch.setattr(np, "linspace", no_times)
        outcome = evaluate(*argv)
    assert outcome.code == cli.EXIT_NUMERICAL, outcome.error
    assert outcome.report.checks[0].measured == (
        "CapacityError: 1.6e+07 times x 1 blocks of 32768 particles are "
        "1.6e+07 moment folds, over the cap of 8192 per ensemble run")
    outcome, peak = traced_peak(lambda: evaluate(*argv),
                                lambda: evaluate(*argv))
    assert outcome.code == cli.EXIT_NUMERICAL
    assert peak < 2 ** 20, peak


def test_runaway_runs_are_refused_before_the_draw(monkeypatch):
    # --samples 1e300 ran gram's and partition's Monte Carlo loops for ever,
    # and relax --stride 1e12 built its stride kernel in 1e12 leapfrog
    # steps: each is refused in under a second, exit 3 naming its flag,
    # before a random number is drawn or a step taken
    import numpy as np

    from thermofock import chain

    def no_work(*args, **kwargs):
        raise AssertionError("the run went past its refusal")

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", no_work)
        patch.setattr(chain, "_leapfrog_stride", no_work)
        for argv, named in ((("gram", "--samples", "1e300"),
                             "--samples 1e+300"),
                            (("partition", "--samples", "1e300"),
                             "--samples 1e+300"),
                            (("ensemble", "--samples", "1e9"),
                             "--samples 1e+09"),
                            (("relax", "--stride", "1e12"), "--stride 1e+12")):
            start = time.perf_counter()
            outcome = evaluate(*argv, "--seed", "1")
            assert time.perf_counter() - start < 1.0, argv
            assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
            measured = outcome.report.checks[0].measured
            assert measured.startswith("CapacityError") and named in measured


def test_sample_and_chain_step_caps_pass_a_run_at_the_cap(monkeypatch):
    # errors.MAX_SAMPLES is the one Monte Carlo cap of gram, partition and
    # ensemble, and errors.MAX_STEPS the one leapfrog step cap of the chain,
    # ensemble and damp runs: each refuses one past it, and a run at it
    # goes on to its checks
    from thermofock import errors

    def refused_past_the_cap(argv):
        outcome = evaluate(*argv)
        assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
        measured = outcome.report.checks[0].measured
        assert measured.startswith("CapacityError"), measured
        return measured

    def passes_at_the_cap(argv):
        outcome = evaluate(*argv)
        assert outcome.code in (cli.EXIT_PASS, cli.EXIT_CHECK_FAILURE), (
            argv, outcome.error)

    with monkeypatch.context() as patch:
        patch.setattr(errors, "MAX_SAMPLES", 1000)
        for command in ("gram", "partition", "ensemble"):
            refused_past_the_cap((command, "--samples", "1001", "--seed", "1"))
            passes_at_the_cap((command, "--samples", "1000", "--seed", "1"))
    # the default runs, the cap patched one step below and then to their
    # counts: relax 1000/0.025 steps, ensemble one period in 19 intervals
    # of 54, damp 5/alpha at 256 steps a period
    for argv, steps in ((("relax", "--seed", "1"), 40_000),
                        (("ensemble", "--seed", "1"), 1026),
                        (("damp",), 20_372)):
        monkeypatch.setattr(errors, "MAX_STEPS", steps - 1)
        measured = refused_past_the_cap(argv)
        assert f"{errors.figure(steps)} leapfrog steps" in measured, measured
        monkeypatch.setattr(errors, "MAX_STEPS", steps)
        passes_at_the_cap(argv)


def test_capacity_messages_write_counts_to_three_digits():
    # the counts of a refused array or run are written as :.3g writes them,
    # also past the largest float: --samples 1e300 printed a 301-digit count
    import re

    for argv, text in (
            (("tilt", "--samples", "1e300", "--seed", "1"),
             "1e+300 tilted draws would hold 2e+300 floats"),
            (("gram", "--nmax", "1e300"),
             "the quadrature Gram at nmax 1e+300 would hold 4e+600 floats"),
            (("sphere", "--samples", "16777217", "--seed", "1"),
             "array of 1.68e+07 sphere draws would hold 1.68e+07 floats"),
            # moment folds past the largest float
            (("ensemble", "--n-times", "1e306", "--samples", "8388608",
              "--seed", "1"),
             "1e+306 times x 256 blocks of 32768 particles are 2.56e+308 "
             "moment folds")):
        outcome = evaluate(*argv)
        assert outcome.code == cli.EXIT_NUMERICAL, (argv, outcome.error)
        measured = outcome.report.checks[0].measured
        assert text in measured, measured
        # no figure longer than the cap's own, 16777216
        assert max(map(len, re.findall(r"\d+", measured))) <= 8, measured


def test_variation_holds_one_random_generator_at_a_time(traced_peak):
    # each random generator is drawn, measured and dropped: at 200 pairs a
    # generator is 1.28 MB, and --count 40 held all of them at once
    args = cli.build_parser().parse_args(
        ["variation", "--pairs", "200", "--count", "40", "--seed", "1"])
    matrix_bytes = 8 * (2 * args.pairs) ** 2
    outcome, peak = traced_peak(lambda: cli.evaluate(args))
    assert outcome.code == cli.EXIT_PASS
    assert peak <= 6 * matrix_bytes


def test_largest_sweep_runs_trace_at_most_two_mib(traced_peak):
    # the three runs that set the benchmark's sweep peak RSS, each after a
    # 10-sample run has made its imports and numpy's one-time set-up: 0.29,
    # 1.78 and 0.89 MiB.  Partition read 3.27 MiB when its draws came in
    # chunks of 2 x 200 000 floats, tilt 2.29 MiB when each part of its
    # complex array was drawn whole, sphere 1.65 MiB when it held its radial
    # and angular draws at once
    for args, mib in ((["partition", "--seed", "7"], 2),
                      (["tilt", "--seed", "1"], 2),
                      (["sphere", "--seed", "21"], 1)):
        parsed = cli.build_parser().parse_args(args)
        outcome, peak = traced_peak(
            lambda: cli.evaluate(parsed),
            # its verdict is not asked
            lambda: evaluate(*args, "--samples", "10"))
        assert outcome.code == cli.EXIT_PASS, (args, outcome.error)
        assert peak <= mib * 2 ** 20, (args, peak)


def test_cloud_gram_run_traces_at_most_five_eighths_of_a_mib(traced_peak):
    # the cloud workload's gram run, after a 10-sample run has made its
    # imports (8.6 MiB on a cold first call): two block buffers of at most
    # 2**14 complex entries and a block's normals, 0.58 MiB.  A chunk's
    # 0.76 MiB of real draws made it 1.34 MiB; blocks of POINT_BLOCK points
    # read 3.03 MiB
    parsed = cli.build_parser().parse_args(["gram", "--samples", "1e6",
                                            "--seed", "7"])
    outcome, peak = traced_peak(
        lambda: cli.evaluate(parsed),
        # its verdict is not asked
        lambda: evaluate("gram", "--samples", "10", "--seed", "7"))
    assert outcome.code == cli.EXIT_PASS, outcome.error
    assert peak <= 0.625 * 2 ** 20, peak


def test_variation_defect_tolerance_grows_with_the_dimension():
    # at 1000 pairs the defects are rounding of 2000-term sums: generator 29,
    # the worst of the default 100, reads 3.6e-12, past the old absolute
    # 1e-12; the rounding bound lets it pass
    check = _checks("variation", "--pairs", "1000", "--count", "30",
                    "--seed", "1")["antisymmetric-defect"]
    assert check.measured > 1e-12
    assert check.passed and check.tolerance > 1e-12


def test_variation_defect_fails_a_generator_that_is_not_antisymmetric(
        monkeypatch):
    # a symmetric part a millionth of the antisymmetric one moves the defect
    # far past the rounding bound, at the same 1000 pairs
    from thermofock import bath

    def skewed(dim, rng):
        m = rng.standard_normal((dim, dim))
        return (m - m.T) / 2.0 + 1e-6 * (m + m.T) / 2.0

    monkeypatch.setattr(bath, "random_antisymmetric", skewed)
    check = _checks("variation", "--pairs", "1000", "--count", "2",
                    "--seed", "1")["antisymmetric-defect"]
    assert not check.passed
    assert check.measured > 100 * check.tolerance


def test_infinite_tolerance_fails_its_check():
    # a tolerance no measurement can miss checks nothing: inf fails, as a
    # NaN measurement or tolerance does; a finite one still decides
    report = ExperimentReport("partition", {})
    report.add("inf", "", 1.0, 2.0, math.inf, stderr=math.inf)
    report.add("nan-tolerance", "", 1.0, 1.0, math.nan)
    report.add("nan-measured", "", math.nan, 1.0, 1.0)
    report.add("finite", "", 1.5, 1.0, 0.5)
    assert [c.passed for c in report.checks] == [False, False, False, True]
    assert not report.passed


def test_evolve_check_fails_on_a_nan_distance(monkeypatch):
    # a NaN at one time must fail the worst-case check, not vanish in max()
    from thermofock import dynamics

    real = dynamics.l2_grid_distance
    calls = []

    def nan_once(a, b):
        calls.append(None)
        return math.nan if len(calls) == 2 else real(a, b)

    monkeypatch.setattr(dynamics, "l2_grid_distance", nan_once)
    check = _checks("evolve", "--seed", "1")["transport-vs-schrodinger"]
    assert math.isnan(check.measured) and not check.passed


def test_ensemble_checks_fail_on_nan_moments(monkeypatch):
    from thermofock import dynamics

    real = dynamics.ensemble_evolve

    def nan_moments(*args, **kwargs):
        history = real(*args, **kwargs)
        history.moments[1] = dataclasses.replace(
            history.moments[1], mean=complex(math.nan, 0.0),
            abs2_mean=math.nan)
        return history

    monkeypatch.setattr(dynamics, "ensemble_evolve", nan_moments)
    checks = _checks("ensemble", "--seed", "1", "--samples", "2000")
    for name in ("ensemble-mean-trace", "ensemble-second-moment"):
        assert math.isnan(checks[name].measured), name
        assert not checks[name].passed, name


def test_internal_error_exits_four_with_diagnostic_report(tmp_path, monkeypatch,
                                                         capsys):
    # an exception outside the contract must not pass for a failed check
    def broken(args, report):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(cli.RUNNERS, "coherent", broken)
    assert cli.main(["coherent", "--outdir", str(tmp_path)]) == cli.EXIT_INTERNAL == 4
    assert "internal error: runner bug" in capsys.readouterr().err
    report = read_report(tmp_path, "coherent")
    assert [check["name"] for check in report["checks"]] == ["internal-error"]
    assert not report["checks"][0]["passed"]
    assert report["checks"][0]["measured"] == "RuntimeError: runner bug"

    # a library ValueError on in-domain flags is a fault of the program, not
    # a usage error: only the parser's and the runners' own type exits 2
    def library_fault(args, report):
        raise ValueError("coeffs must be finite")

    monkeypatch.setitem(cli.RUNNERS, "coherent", library_fault)
    assert cli.main(["coherent", "--outdir", str(tmp_path)]) == cli.EXIT_INTERNAL
    assert "internal error: coeffs must be finite" in capsys.readouterr().err


def test_reports_are_reproducible_across_directories(tmp_path):
    # a report is the same whatever --threads is; gram's Monte Carlo table
    # only at a fixed --threads, since the thread cap moves the last bits of
    # its zgemm sums.  The quadrature Gram and the ensemble's moments make
    # no BLAS call, so their tables are the same at any --threads too
    for args, at_fixed_threads, at_any_threads in (
            (("gram", "--nmax", "8", "--samples", "20000", "--seed", "7"),
             ("gram_montecarlo.csv",), ("gram_quadrature.csv",)),
            (("ensemble", "--seed", "7", "--samples", "40000"), (),
             ("ensemble_moments.csv",))):
        command = args[0]
        outs = [tmp_path / command / name for name in "abc"]
        for out, threads in zip(outs, ("1", "1", "2")):
            proc = run_cli(*args, "--threads", threads, outdir=out)
            assert proc.returncode == 0, proc.stderr
        reports = [read_report(out, command) for out in outs]
        for report in reports:
            report.pop("duration_seconds")
        assert reports[0] == reports[1] == reports[2]
        for name in at_fixed_threads:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        for name in at_any_threads:
            assert len({(out / name).read_bytes() for out in outs}) == 1


def test_gram_quadrature_table_is_the_same_at_any_threads(tmp_path):
    # at the defaults, zgemm's sums moved 848 of the table's 1450 cells
    # between --threads 1 and 2; row sums in a fixed order move none
    tables = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = run_cli("gram", "--threads", threads, outdir=out)
        assert proc.returncode == 0, proc.stderr
        tables.append((out / "gram_quadrature.csv").read_bytes())
    assert tables[0] == tables[1]


def test_output_failures_keep_the_exit_code_contract(tmp_path, capsys,
                                                    monkeypatch):
    # an output directory that cannot be made is a usage error, met before
    # the runner; a table or report that cannot be written is an internal
    # error, not a failed check
    import numpy as np

    ran = []
    monkeypatch.setitem(cli.RUNNERS, "coherent", lambda args, report: (
        ran.append(args) or {"t.csv": np.rec.fromrecords([(1,)], names="x")}))
    (tmp_path / "file").write_text("")
    argv = ["coherent", "--outdir", str(tmp_path / "file")]
    assert cli.main(argv) == cli.EXIT_USAGE and not ran
    assert capsys.readouterr().err.startswith("usage error: --outdir: ")
    for name in ("t.csv", "coherent_report.json"):
        (tmp_path / name / name).mkdir(parents=True)
        argv = ["coherent", "--outdir", str(tmp_path / name)]
        assert cli.main(argv) == cli.EXIT_INTERNAL, name
        assert capsys.readouterr().err.startswith("internal error: "), name
    assert len(ran) == 2


def test_a_long_table_is_written_from_its_arrays(tmp_path, traced_peak):
    # damp's 203 720 snapshots at --t-max 20000: the run's arrays, its
    # table of five float columns among them, trace about 27 MiB.  Rows of
    # Python floats, built by the runner and formatted a cell at a time,
    # traced 67 MiB
    outdir = str(tmp_path)
    code, peak = traced_peak(
        lambda: cli.main(["damp", "--t-max", "20000", "--outdir", outdir]),
        lambda: cli.main(["damp", "--outdir", outdir]))
    assert code == cli.EXIT_PASS
    assert peak < 35 * 2 ** 20
    with open(tmp_path / "damp_trajectory.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 1 + 203_720


def test_an_unencodable_report_is_an_internal_error(tmp_path, capsys,
                                                   monkeypatch):
    # a numpy integer has no JSON form: the run ends as an internal error,
    # and no empty or partial report is left on disk
    import numpy as np

    monkeypatch.setitem(cli.RUNNERS, "coherent", lambda args, report: (
        report.add("int64", "", np.int64(0), 0, 0.0) or []))
    assert cli.main(["coherent", "--outdir", str(tmp_path)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("internal error: no JSON form for int64 ")
    assert err.count("\n") == 1
    assert not (tmp_path / "coherent_report.json").exists()


def test_a_report_writes_complex_as_re_im_and_numpy_floats_as_numbers(
        tmp_path, monkeypatch):
    import numpy as np

    real = cli.RUNNERS["coherent"]

    def run(args, report):
        tables = real(args, report)
        report.add("float64", "", np.float64(0.25), 0.25, 0.0)
        return tables

    monkeypatch.setitem(cli.RUNNERS, "coherent", run)
    argv = ["coherent", "--c", "0.3+0.4j", "--outdir", str(tmp_path)]
    assert cli.main(argv) == cli.EXIT_PASS
    report = read_report(tmp_path, "coherent")
    assert report["config"]["c"] == {"re": 0.3, "im": 0.4}
    [check] = [c for c in report["checks"] if c["name"] == "float64"]
    assert type(check["measured"]) is float and check["measured"] == 0.25
    text = (tmp_path / "coherent_report.json").read_text(encoding="utf-8")
    assert '"measured": 0.25,' in text


def test_outdir_env_variable_routes_output(tmp_path):
    target = tmp_path / "routed"
    proc = run_cli("coherent", env_extra={"THERMOFOCK_OUTDIR": str(target)})
    assert proc.returncode == 0, proc.stderr
    assert (target / "coherent_report.json").exists()


def test_seeded_run_leaves_openssl_unloaded(tmp_path):
    # numpy.random imports secrets, and through hashlib OpenSSL's libcrypto,
    # only to seed unseeded generators; `main` keeps it out of every run
    child = ("import sys\n"
             "from thermofock import cli\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(code, 'numpy.random' in sys.modules,\n"
             "      sys.modules.get('_hashlib') is None)\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "tilt", "--seed", "1", "--samples",
         "1000", "--outdir", str(tmp_path)], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "0 True True"


def test_reports_load_json_and_csv_only_to_write(tmp_path):
    # importing the report module, and a run up to its verdict, load
    # neither json nor csv (0.24 MiB at every run's peak); writing the
    # report loads json, and writing its table csv
    child = ("import sys\n"
             "import thermofock.reports\n"
             "from thermofock import cli\n"
             "loaded = lambda: ('json' in sys.modules, 'csv' in sys.modules)\n"
             "before = loaded()\n"
             "outcome = cli.evaluate(cli.build_parser().parse_args(\n"
             "    ['tilt', '--seed', '1', '--samples', '1000']))\n"
             "evaluated = loaded()\n"
             "code = cli.main(sys.argv[1:])\n"
             "print(code, before, evaluated, loaded())\n")
    proc = subprocess.run(
        [sys.executable, "-c", child, "tilt", "--seed", "1", "--samples",
         "1000", "--outdir", str(tmp_path)], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == (
        "0 (False, False) (False, False) (True, True)")


# A quick passing invocation of each subcommand, flags after the name.
QUICK_FLAGS = {
    "gram": ("--nmax", "4"),
    "commutator": ("--nmax", "8"),
    "evolve": ("--seed", "1"),
    "ensemble": ("--samples", "2000", "--seed", "7"),
    "partition": ("--samples", "100000", "--seed", "7"),
    "variation": ("--seed", "1"),
    "tilt": ("--samples", "1000", "--seed", "1"),
    "sphere": ("--samples", "1000", "--seed", "21"),
    "chain-dispersion": ("--sites", "16", "--seed", "42"),
    "rescale": ("--seed", "1"),
    "relax": ("--seed", "5"),
}

# Runs the CLI as `python -m thermofock.cli` does, then prints its exit
# code and the loaded modules that the start-up cost depends on.
_IMPORTS_CHILD = """
import json, runpy, sys
sys.argv[0] = "thermofock"
try:
    runpy.run_module("thermofock.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith(
    ("thermofock.", "numpy.polynomial", "fractions")))]))
"""


def _subparsers():
    return next(action.choices for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))


def _subcommands():
    return sorted(_subparsers())


# The runs that draw from or describe the Gibbs bath, the only ones that
# load `bath`.
BATH_COMMANDS = ("partition", "variation", "tilt", "sphere", "mode-commutator",
                 "ensemble")


@pytest.mark.parametrize("command", _subcommands())
def test_a_run_loads_only_its_own_command(command, tmp_path):
    # a run compiles its own runner and no other, never a second copy of
    # the CLI module, only gram the quadrature's numpy.polynomial, none
    # `fractions` (the exact brackets are Gaussian integers), and only the
    # bath runs `bath`
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORTS_CHILD, command,
         *QUICK_FLAGS.get(command, ()), "--outdir", str(tmp_path)],
        capture_output=True, text=True)
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    assert "thermofock.cli" not in loaded
    assert [name for name in loaded
            if name.startswith("thermofock.commands.")] == [
        "thermofock.commands." + command.replace("-", "_")]
    assert ("numpy.polynomial" in loaded) == (command == "gram")
    assert "fractions" not in loaded
    assert ("thermofock.bath" in loaded) == (command in BATH_COMMANDS)


_CHAIN_COMMANDS = ("chain-dispersion", "rescale", "relax")

# Each flag that several subcommands take with one domain and default, and
# the subcommands that take it.  gram's optional --seed is not this flag.
SHARED_FLAGS = {
    "--seed": ("evolve", "ensemble", "partition", "variation", "tilt",
               "sphere", *_CHAIN_COMMANDS),
    "--omega": ("commutator", "evolve", "damp", "ensemble", "partition",
                "variation", "tilt", "sphere"),
    "--beta": ("partition", "tilt", "sphere", "mode-commutator",
               *_CHAIN_COMMANDS),
    "--hbar": ("gram", "coherent", "commutator", "evolve", "damp", "ensemble"),
    "--c": ("coherent", "ensemble", "tilt"),
    **dict.fromkeys(("--mass", "--gamma", "--gamma-couple", "--spacing"),
                    _CHAIN_COMMANDS),
}


@pytest.mark.parametrize("flag", SHARED_FLAGS)
def test_a_shared_flag_is_one_declaration(flag):
    # every subcommand that takes the flag holds the same action object, so
    # its domain, default and help cannot drift apart between them
    actions = {name: parser._option_string_actions[flag]
               for name, parser in _subparsers().items()
               if flag in parser._option_string_actions
               and not (flag == "--seed" and name == "gram")}
    assert sorted(actions) == sorted(SHARED_FLAGS[flag])
    assert len({id(action) for action in actions.values()}) == 1
    assert next(iter(actions.values())).required == (flag == "--seed")


def test_thread_cap_is_validated(tmp_path):
    assert run_cli("coherent", "--threads", "0", outdir=tmp_path).returncode == 2
    assert run_cli("coherent", "--threads", "1", outdir=tmp_path).returncode == 0
