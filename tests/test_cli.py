"""End-to-end checks of the command-line harness: exit codes, report files,
CSV outputs, and run-to-run reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
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
            # ensemble friction that is not underdamped (alpha >= 2 omega)
            (["ensemble", "--seed", "1", "--alpha", "2"], "--alpha"),
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


# the overflows these runs provoke warn in numpy before a check trips
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_three_with_diagnostic_report(tmp_path, capsys):
    def exits_three(command, *args):
        start = time.perf_counter()
        code = cli.main([command, *args, "--outdir", str(tmp_path)])
        assert time.perf_counter() - start < 5.0, (command, args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL, (command, args, err)
        assert "numerical failure" in err
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
            # past the leapfrog's stability bound w dt = 2
            ("damp", "--dt", "2.5"),
            ("damp", "--dt", "1e3"),
            # every energy change underflows to 0: no log-log slope
            ("variation", "--seed", "1", "--dt-min", "1e-300",
             "--dt-max", "1e-299"),
            # in-domain flags whose derived quantities leave the float
            # range: a run length 10/alpha or 10/omega of inf, hbar =
            # 1/(beta omega) of 0, a thermal state too hot to be finite, a
            # coupling 1/a^2 of inf
            ("relax", "--seed", "1", "--alpha", "1e-320"),
            ("evolve", "--seed", "1", "--omega", "1e-320"),
            ("mode-commutator", "--beta", "1e200", "--omega0", "1e200"),
            ("rescale", "--seed", "1", "--beta", "1e-320"),
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


def test_variation_holds_one_random_generator_at_a_time():
    # each random generator is drawn, measured and dropped: at 200 pairs a
    # generator is 1.28 MB, and --count 40 held all of them at once
    args = cli.build_parser().parse_args(
        ["variation", "--pairs", "200", "--count", "40", "--seed", "1"])
    matrix_bytes = 8 * (2 * args.pairs) ** 2
    tracemalloc.start()
    try:
        outcome = cli.evaluate(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.code == cli.EXIT_PASS
    assert peak <= 6 * matrix_bytes


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
    # a report is the same whatever --threads is; a CSV table only at a
    # fixed --threads, since the thread cap moves the last bits of BLAS sums
    args = ("gram", "--nmax", "8", "--samples", "20000", "--seed", "7")
    outs = [tmp_path / "a", tmp_path / "b", tmp_path / "c"]
    for out, threads in zip(outs, ("1", "1", "2")):
        assert run_cli(*args, "--threads", threads, outdir=out).returncode == 0
    reports = [read_report(out, "gram") for out in outs]
    for report in reports:
        report.pop("duration_seconds")
    assert reports[0] == reports[1] == reports[2]
    for name in ("gram_quadrature.csv", "gram_montecarlo.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_output_failures_keep_the_exit_code_contract(tmp_path, capsys,
                                                    monkeypatch):
    # an output directory that cannot be made is a usage error, met before
    # the runner; a table or report that cannot be written is an internal
    # error, not a failed check
    ran = []
    monkeypatch.setitem(cli.RUNNERS, "coherent", lambda args, report: (
        ran.append(args) or [("t.csv", ["x"], [(1,)])]))
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


def test_thread_cap_is_validated(tmp_path):
    assert run_cli("coherent", "--threads", "0", outdir=tmp_path).returncode == 2
    assert run_cli("coherent", "--threads", "1", outdir=tmp_path).returncode == 0
