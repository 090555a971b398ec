"""Thermal-bath statistics: equilibrium moments, the action cell,
constrained variations, the coherent tilt and the sphere pushforward.

Closed-form oracles: Gaussian moments of the equilibrium, the partition
integral Z = 2 pi/(beta omega) per oscillator pair, the shifted Gaussian of
the tilt, and the exponential radial law of the sphere map.
"""

import math

import numpy as np
import pytest

from thermofock import bath
from thermofock.bargmann import FockVector
from thermofock.bath import (
    BathParams,
    SphereParams,
    VariationGenerator,
    generator_defect,
    gibbs_first_order_defect,
    ks_threshold_99,
    moment_report,
    partition_estimate,
    quadratic_form_matrix,
    random_antisymmetric,
    sphere_pushforward_check,
    tilt_measure,
)
from thermofock.dynamics import ensemble_evolve
from thermofock.fits import fit_loglog_slope
from thermofock.phasespace import (
    OscillatorParams,
    PhaseRing,
    oscillator_hamiltonian,
    variable,
)


# -- bath parameters -----------------------------------------------------------

def test_hbar_is_inverse_beta_omega(usage_error):
    bp = BathParams(beta=2.0, omega=0.25)
    assert bp.hbar == pytest.approx(2.0)
    assert bp.h == pytest.approx(4.0 * math.pi)
    # BathParams takes --beta and --omega, which refuse 0 and negatives
    usage_error(["tilt", "--seed", "1", "--beta", "0"], "--beta")
    usage_error(["tilt", "--seed", "1", "--omega", "-1"], "--omega")


# -- sample moments -------------------------------------------------------------

def test_equilibrium_moments():
    # the equilibrium density exp(-|z|^2/hbar)/(pi hbar) is |e_0|^2 dmu, the
    # ensemble's vacuum: <z> = 0, <|z|^2> = hbar, <|z|^4> = 2 hbar^2
    bp = BathParams(1.0, 2.0)   # hbar = 0.5
    vacuum = FockVector(np.eye(9)[0], bp.hbar)
    hist = ensemble_evolve(vacuum, OscillatorParams(bp.omega), [0.0],
                           200_000, seed=7)
    rep = hist.moments[0]
    se_re, se_im = rep.mean_se
    assert abs(rep.mean.real) <= 4 * se_re
    assert abs(rep.mean.imag) <= 4 * se_im
    assert abs(rep.abs2_mean - bp.hbar) <= 4 * rep.abs2_se
    a4 = np.abs(hist.final_z) ** 4
    abs4_se = np.std(a4, ddof=1) / math.sqrt(a4.size)
    assert abs(np.mean(a4) - 2 * bp.hbar ** 2) <= 4 * abs4_se


def test_moment_report_needs_two_samples(usage_error):
    # a standard error needs two draws: --samples refuses fewer
    usage_error(["tilt", "--seed", "1", "--samples", "1"], "--samples")
    usage_error(["ensemble", "--seed", "1", "--samples", "1"], "--samples")


# -- partition function ----------------------------------------------------------

def test_analytic_action_cell_single_pair():
    ring = PhaseRing.canonical(1)
    h = oscillator_hamiltonian(ring, 1.0)
    out = partition_estimate(h, 1.0, 1, method="analytic")
    assert out.h == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert out.z_value == out.h
    assert out.stderr == 0.0


def test_analytic_action_cell_scales_with_beta_omega():
    ring = PhaseRing.canonical(1)
    for beta, omega in [(2.0, 1.0), (0.5, 3.0), (1.0, 0.25)]:
        h = oscillator_hamiltonian(ring, omega)
        out = partition_estimate(h, beta, 1, method="analytic")
        assert out.h == pytest.approx(2.0 * math.pi / (beta * omega), rel=1e-12)


def test_analytic_action_cell_two_pairs():
    # Z factorizes; h = Z^(1/2) is the geometric mean of the two cells
    ring = PhaseRing.canonical(2)
    q1, p1 = variable(ring, "q1"), variable(ring, "p1")
    q2, p2 = variable(ring, "q2"), variable(ring, "p2")
    h = (q1 * q1 + p1 * p1) * 0.5 + (q2 * q2 + p2 * p2) * 1.0
    out = partition_estimate(h, 1.0, 2, method="analytic")
    assert out.h == pytest.approx(2.0 * math.pi / math.sqrt(2.0), rel=1e-12)


def test_montecarlo_action_cell_matches_analytic():
    ring = PhaseRing.canonical(1)
    h = oscillator_hamiltonian(ring, 1.0)
    out = partition_estimate(h, 1.0, 1, method="montecarlo",
                             samples=200_000, seed=7)
    assert out.stderr > 0
    assert abs(out.h - 2.0 * math.pi) <= 4.0 * out.stderr
    assert abs(out.h - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi


def test_partition_rejects_bad_input(usage_error):
    ring = PhaseRing.canonical(1)
    h = oscillator_hamiltonian(ring, 1.0)
    usage_error(["partition", "--seed", "1", "--beta", "-1"], "--beta")
    with pytest.raises(ValueError):
        partition_estimate(h, 1.0, 2)            # pair-count mismatch
    usage_error(["partition"], "--seed")
    usage_error(["partition", "--seed", "1", "--proposal-scale", "0.7"],
                "--proposal-scale")
    q, p = variable(ring, "q"), variable(ring, "p")
    cubic = h + q * q * q
    with pytest.raises(ValueError):
        partition_estimate(cubic, 1.0, 1)        # not quadratic
    indefinite = q * q - p * p
    with pytest.raises(ValueError):
        partition_estimate(indefinite, 1.0, 1)   # not positive definite


def test_quadratic_form_matrix_entries():
    ring = PhaseRing.canonical(1)
    q, p = variable(ring, "q"), variable(ring, "p")
    h = q * q * 1.5 + p * p * 0.5 + q * p * 0.25
    a = quadratic_form_matrix(h)
    np.testing.assert_allclose(a, [[3.0, 0.25], [0.25, 1.0]])


# -- constrained variations --------------------------------------------------------

def test_antisymmetric_generators_preserve_energy_to_first_order():
    ring = PhaseRing.canonical(2)
    h = oscillator_hamiltonian(ring, 1.0)
    rng = np.random.default_rng(123)
    x = rng.standard_normal(4)
    worst = 0.0
    for _ in range(100):
        gen = random_antisymmetric(4, rng)
        worst = max(worst, generator_defect(x, h, gen))
    assert worst <= 1e-12


def test_first_order_defect_is_second_order_in_dt():
    ring = PhaseRing.canonical(2)
    h = oscillator_hamiltonian(ring, 1.0)
    x = np.array([0.8, -0.4, 0.3, 1.1])
    dts = np.logspace(-4, -2, 9)
    defects = gibbs_first_order_defect(x, h, VariationGenerator.standard(2), dts)
    slope = fit_loglog_slope(dts, defects)
    assert slope == pytest.approx(2.0, abs=0.1)


def test_generator_must_be_antisymmetric():
    with pytest.raises(ValueError):
        VariationGenerator(np.eye(2))


# -- tilted measure ---------------------------------------------------------------

def test_tilt_shifts_the_mean_not_the_covariance():
    bp = BathParams(1.0, 1.0)
    c = 0.5 - 0.3j
    out = tilt_measure(bp, c, 100_000, seed=9)
    assert out.expected_mean == pytest.approx(bp.hbar * np.conj(c))
    se_re, se_im = out.report.mean_se
    assert abs(out.report.mean.real - out.expected_mean.real) <= 4 * se_re
    assert abs(out.report.mean.imag - out.expected_mean.imag) <= 4 * se_im
    half = bp.hbar / 2.0
    assert abs(out.var_real - half) <= 4 * out.var_se
    assert abs(out.var_imag - half) <= 4 * out.var_se
    assert abs(out.cov_real_imag) <= 4 * out.cov_se


# -- sphere pushforward --------------------------------------------------------------

def test_sphere_pushforward_both_marginals():
    params = SphereParams(radius=math.sqrt(0.5), beta=1.0)
    out = sphere_pushforward_check(params, 100_000, seed=21)
    assert out.ks_radial < ks_threshold_99(100_000)
    assert out.ks_angular < ks_threshold_99(100_000)


# seed 21 is the a12 draw; at seed 3 both distances come from the lower side
@pytest.mark.parametrize("seed", [21, 3])
def test_ks_statistic_matches_scipy(seed):
    stats = pytest.importorskip("scipy.stats")
    params = SphereParams(radius=math.sqrt(0.5), beta=1.0)
    out = sphere_pushforward_check(params, 100_000, seed=seed)
    radial = stats.kstest(out.radial - params.t_min, stats.expon(scale=1.0).cdf)
    angular = stats.kstest(out.angles / (2.0 * math.pi), "uniform")
    assert out.ks_radial == radial.statistic
    assert out.ks_angular == angular.statistic


def test_sphere_area_is_the_action_cell():
    # R^2 = 1/(2 beta omega) makes the sphere area equal h = 2 pi/(beta omega)
    beta, omega = 1.0, 1.0
    params = SphereParams(radius=math.sqrt(1.0 / (2.0 * beta * omega)), beta=beta)
    assert params.area == pytest.approx(2.0 * math.pi / (beta * omega), rel=1e-12)
    assert params.t_min == pytest.approx(0.0, abs=1e-15)
    assert params.u_max == pytest.approx(1.0, rel=1e-15)


def test_sphere_small_radius_shifts_the_exponential():
    # 2 beta R^2 < 1: the whole sphere is admissible but |z|^2 starts at t_min
    params = SphereParams(radius=0.3, beta=1.0)
    assert params.u_max == 1.0
    assert params.t_min == pytest.approx(-math.log(2 * 0.09), rel=1e-12)
    out = sphere_pushforward_check(params, 50_000, seed=4)
    assert out.ks_radial < out.threshold_99
    assert out.ks_angular < out.threshold_99
    assert float(np.min(out.radial)) >= params.t_min - 1e-12


def test_sphere_large_radius_caps_the_polar_angle():
    # 2 beta R^2 > 1: only the cap u <= u_max maps to non-negative |z|^2
    params = SphereParams(radius=2.0, beta=1.0)
    assert params.u_max == pytest.approx(1.0 / 8.0)
    assert params.t_min == 0.0
    out = sphere_pushforward_check(params, 50_000, seed=4)
    assert out.ks_radial < out.threshold_99
    assert out.ks_angular < out.threshold_99
    assert float(np.min(out.radial)) >= -1e-12


def test_sphere_validation(usage_error):
    with pytest.raises(ValueError):
        SphereParams(0.0, 1.0)
    usage_error(["sphere", "--seed", "1", "--beta", "-2"], "--beta")
    usage_error(["sphere", "--seed", "1", "--radius2", "-1"], "--radius2")
    usage_error(["sphere", "--seed", "1", "--samples", "9"], "--samples")
    usage_error(["sphere"], "--seed")
