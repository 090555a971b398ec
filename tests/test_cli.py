"""End-to-end checks of the command-line harness: exit codes, report files,
CSV outputs, and run-to-run reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys

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


def test_usage_errors_exit_two(tmp_path):
    # Monte Carlo without a seed is refused, not silently seeded
    assert run_cli("gram", "--samples", "1000", outdir=tmp_path).returncode == 2
    # nonsensical basis size
    assert run_cli("gram", "--nmax", "-3", outdir=tmp_path).returncode == 2
    # unknown subcommand and no subcommand at all
    assert run_cli("frobnicate", outdir=tmp_path).returncode == 2
    assert run_cli().returncode == 2
    # malformed complex literal
    assert run_cli("coherent", "--c", "nope", outdir=tmp_path).returncode == 2
    # required seed left out entirely
    assert run_cli("relax", "--alpha", "0", outdir=tmp_path).returncode == 2
    # zero temperature scale or frequency: no action cell, no hbar
    for args in (("partition", "--seed", "1", "--beta", "0"),
                 ("partition", "--seed", "1", "--omega", "0"),
                 ("sphere", "--seed", "1", "--beta", "0"),
                 ("sphere", "--seed", "1", "--omega", "0"),
                 ("mode-commutator", "--beta", "0"),
                 ("mode-commutator", "--omega0", "0")):
        assert run_cli(*args, outdir=tmp_path).returncode == 2, args
    # the squared norm exp(hbar |c|^2) of this coherent vector overflows
    assert run_cli("coherent", "--c", "30", "--nmax", "400",
                   outdir=tmp_path).returncode == 2
    # past |c| ~ 1.3e154 even |c|^2 overflows; the same guard refuses it
    for args in (("coherent", "--c", "1e200"), ("coherent", "--c", "1e200j"),
                 ("ensemble", "--seed", "1", "--c", "1e200")):
        proc = run_cli(*args, outdir=tmp_path)
        assert proc.returncode == 2, args
        assert "exp(hbar |c|^2) overflows a float" in proc.stderr, args
    # no friction to measure, a zero lattice spacing, an empty time grid
    for args in (("damp", "--alpha", "0"),
                 ("continuum", "--spacings", "1,0.5,0"),
                 ("evolve", "--seed", "1", "--n-times", "0")):
        assert run_cli(*args, outdir=tmp_path).returncode == 2, args
    # ensemble friction that is negative or not underdamped (alpha >= 2 omega)
    for alpha in ("-1", "2"):
        assert run_cli("ensemble", "--seed", "1", "--alpha", alpha,
                       outdir=tmp_path).returncode == 2, alpha
    # no Monte Carlo draws at all, or one draw and so no standard error
    for samples in ("0", "1"):
        assert run_cli("partition", "--seed", "1", "--samples", samples,
                       outdir=tmp_path).returncode == 2, samples
    # a negative truncation for the coherent vector, a zero leapfrog step
    for args in (("coherent", "--nmax", "-1"),
                 ("ensemble", "--seed", "1", "--nmax", "-1"),
                 ("damp", "--nmax", "-1"),
                 ("damp", "--dt", "0")):
        assert run_cli(*args, outdir=tmp_path).returncode == 2, args
    # no generator to check, no interior block below the truncation, no
    # half-quantum at zero frequency, no Taylor slope to fit (no Hamiltonian,
    # one step, a zero or infinite step, one distinct step); the message
    # names the flag
    for args, flag in ((("variation", "--seed", "1", "--count", "0"), "--count"),
                       (("variation", "--seed", "1", "--count", "-3"), "--count"),
                       (("coherent", "--nmax", "0"), "--nmax"),
                       (("commutator", "--nmax", "0"), "--nmax"),
                       (("commutator", "--omega", "0"), "omega"),
                       (("variation", "--seed", "1", "--omega", "0"), "--omega"),
                       (("variation", "--seed", "1", "--dt-count", "1"),
                        "--dt-count"),
                       (("variation", "--seed", "1", "--dt-min", "0"),
                        "--dt-min"),
                       (("variation", "--seed", "1", "--dt-max", "0"),
                        "--dt-max"),
                       (("variation", "--seed", "1", "--dt-max", "inf"),
                        "--dt-max"),
                       (("variation", "--seed", "1", "--dt-min", "1e-3",
                         "--dt-max", "1e-3"), "--dt-min")):
        proc = run_cli(*args, outdir=tmp_path)
        assert proc.returncode == 2, args
        assert flag in proc.stderr, (args, proc.stderr)


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


def test_numerical_failure_exits_three_with_diagnostic_report(tmp_path):
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
            ("evolve", "--seed", "1", "--radius", "1e200")):
        proc = run_cli(command, *args, outdir=tmp_path)
        assert proc.returncode == 3, (command, args)
        assert "numerical failure" in proc.stderr
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
    def broken(args):
        raise RuntimeError("runner bug")

    monkeypatch.setitem(cli.RUNNERS, "coherent", broken)
    assert cli.main(["coherent", "--outdir", str(tmp_path)]) == cli.EXIT_INTERNAL == 4
    assert "internal error: runner bug" in capsys.readouterr().err
    report = read_report(tmp_path, "coherent")
    assert [check["name"] for check in report["checks"]] == ["internal-error"]
    assert not report["checks"][0]["passed"]
    assert report["checks"][0]["measured"] == "RuntimeError: runner bug"


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
