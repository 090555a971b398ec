"""End-to-end checks of the command-line harness: exit codes, report files,
CSV outputs, and run-to-run reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import pytest

from thermofock import cli


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


def test_coherent_accepts_complex_literals(tmp_path):
    proc = run_cli("coherent", "--c", "0.3+0.4j", outdir=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = read_report(tmp_path, "coherent")
    assert all(check["passed"] for check in report["checks"])


def test_relax_control_run_without_damping(tmp_path):
    proc = run_cli("relax", "--alpha", "0", "--sites", "16",
                   "--t-max", "50", "--seed", "5", outdir=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "relax_energy.csv").exists()


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
            (["ensemble", "--seed", "1", "--c", "1e200"], "--c/--hbar"),
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


def test_damped_ensemble_passes_against_the_exact_flow(tmp_path):
    # at alpha = 0.05 a first-order oracle (one damped branch) reads 6.85 se
    # off the mean at this seed; the exact underdamped flow passes
    proc = run_cli("ensemble", "--alpha", "0.05", "--seed", "3", outdir=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = read_report(tmp_path, "ensemble")
    assert all(check["passed"] for check in report["checks"])


def test_few_sample_ensemble_is_no_sampler_collapse(tmp_path):
    # the first chunk of 10 000 proposals accepts thousands of draws for 5
    # samples; counting only the 5 kept ones read as an efficiency collapse
    proc = run_cli("ensemble", "--samples", "5", "--seed", "1", outdir=tmp_path)
    assert proc.returncode in (0, 1), proc.stdout + proc.stderr
    report = read_report(tmp_path, "ensemble")
    efficiency = {c["name"]: c for c in report["checks"]}["sampler-efficiency"]
    assert efficiency["passed"]


@pytest.mark.parametrize("args", [("--omega", "1e-200"),
                                  ("--omega", "1e-300", "--alpha", "1e-301")])
def test_ensemble_at_tiny_omega_completes(tmp_path, args):
    # omega^2 underflows to 0; the oracle's frequency must not divide by it
    proc = run_cli("ensemble", "--seed", "1", *args, outdir=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# the overflows these runs provoke warn in numpy before a check trips
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_failure_exits_three_with_diagnostic_report(tmp_path, capsys):
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
            # more snapshots than the buffer cap: refused before a step
            ("chain-dispersion", "--seed", "1", "--periods", "1e300"),
            ("damp", "--t-max", "1e300")):
        start = time.perf_counter()
        code = cli.main([command, *args, "--outdir", str(tmp_path)])
        assert time.perf_counter() - start < 5.0, (command, args)
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL, (command, args, err)
        assert "numerical failure" in err
        report = read_report(tmp_path, command)
        assert [check["name"] for check in report["checks"]] == ["numerical-failure"]
        assert not report["checks"][0]["passed"]


def test_evolve_check_fails_on_a_nan_distance(tmp_path, monkeypatch):
    # a NaN at one time must fail the worst-case check, not vanish in max()
    from thermofock import dynamics

    real = dynamics.l2_grid_distance
    calls = []

    def nan_once(a, b):
        calls.append(None)
        return math.nan if len(calls) == 2 else real(a, b)

    monkeypatch.setattr(dynamics, "l2_grid_distance", nan_once)
    code = cli.main(["evolve", "--seed", "1", "--outdir", str(tmp_path)])
    assert code == cli.EXIT_CHECK_FAILURE
    checks = {c["name"]: c for c in read_report(tmp_path, "evolve")["checks"]}
    assert math.isnan(checks["transport-vs-schrodinger"]["measured"])
    assert not checks["transport-vs-schrodinger"]["passed"]


def test_ensemble_checks_fail_on_nan_moments(tmp_path, monkeypatch):
    from thermofock import dynamics

    real = dynamics.ensemble_evolve

    def nan_moments(*args, **kwargs):
        history = real(*args, **kwargs)
        history.moments[1] = dataclasses.replace(
            history.moments[1], mean=complex(math.nan, 0.0),
            abs2_mean=math.nan)
        return history

    monkeypatch.setattr(dynamics, "ensemble_evolve", nan_moments)
    code = cli.main(["ensemble", "--seed", "1", "--samples", "2000",
                     "--outdir", str(tmp_path)])
    assert code == cli.EXIT_CHECK_FAILURE
    checks = {c["name"]: c for c in read_report(tmp_path, "ensemble")["checks"]}
    for name in ("ensemble-mean-trace", "ensemble-second-moment"):
        assert math.isnan(checks[name]["measured"]), name
        assert not checks[name]["passed"], name


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
    args = ("gram", "--nmax", "8", "--samples", "20000", "--seed", "7")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, outdir=out_a).returncode == 0
    assert run_cli(*args, outdir=out_b).returncode == 0
    rep_a, rep_b = read_report(out_a, "gram"), read_report(out_b, "gram")
    rep_a.pop("duration_seconds"), rep_b.pop("duration_seconds")
    assert rep_a == rep_b
    for name in ("gram_quadrature.csv", "gram_montecarlo.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_outdir_env_variable_routes_output(tmp_path):
    target = tmp_path / "routed"
    proc = run_cli("coherent", env_extra={"THERMOFOCK_OUTDIR": str(target)})
    assert proc.returncode == 0, proc.stderr
    assert (target / "coherent_report.json").exists()


def test_thread_cap_is_validated(tmp_path):
    assert run_cli("coherent", "--threads", "0", outdir=tmp_path).returncode == 2
    assert run_cli("coherent", "--threads", "1", outdir=tmp_path).returncode == 0
