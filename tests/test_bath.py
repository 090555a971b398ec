"""Thermal-bath statistics: equilibrium moments, the action cell,
constrained variations, the coherent tilt and the sphere pushforward.

Closed-form oracles: Gaussian moments of the equilibrium, the partition
integral Z = 2 pi/(beta omega) per oscillator pair, the shifted Gaussian of
the tilt, and the exponential radial law of the sphere map.
"""

import math
import tracemalloc

import numpy as np
import pytest

from thermofock import bath, cli, dynamics, errors
from thermofock.bargmann import FockVector
from thermofock.bath import (
    SAMPLE_BLOCK,
    BathParams,
    generator_defect,
    gibbs_first_order_defect,
    ks_statistic,
    moment_report,
    partition_estimate,
    random_antisymmetric,
    sphere_pushforward_check,
    symplectic_generator,
    tilt_measure,
)
from thermofock.dynamics import ensemble_evolve
from thermofock.errors import CapacityError
from thermofock.fits import fit_loglog_slope
from thermofock.phasespace import OscillatorParams


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
    draws = np.concatenate([block.copy() for block, _ in
                            dynamics._rejection_sample(vacuum, 200_000, 7, 2.0)])
    a4 = np.abs(draws) ** 4
    abs4_se = np.std(a4, ddof=1) / math.sqrt(a4.size)
    assert abs(np.mean(a4) - 2 * bp.hbar ** 2) <= 4 * abs4_se


@pytest.mark.parametrize("n", [2, 4097, 3 * 4096 + 5,
                               # several cloud blocks, the last one short
                               # or of a single point
                               3 * SAMPLE_BLOCK + 4099, 4 * SAMPLE_BLOCK + 1])
def test_blocked_moments_match_the_whole_array_formulas(n):
    rng = np.random.default_rng(n)
    z = rng.normal(1.5, 0.7, n) + 1j * rng.normal(-0.4, 0.3, n)
    rep = moment_report(z)
    a2 = np.abs(z) ** 2
    expected = (np.mean(z.real), np.mean(z.imag),
                np.std(z.real, ddof=1) / math.sqrt(n),
                np.std(z.imag, ddof=1) / math.sqrt(n),
                np.mean(a2), np.std(a2, ddof=1) / math.sqrt(n))
    got = (rep.mean.real, rep.mean.imag, *rep.mean_se, rep.abs2_mean,
           rep.abs2_se)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        (rep.var_re, rep.var_im, rep.cov),
        (np.var(z.real, ddof=1), np.var(z.imag, ddof=1),
         np.cov(z.real, z.imag, ddof=1)[0, 1]), rtol=1e-12, atol=0.0)


def test_moment_report_makes_no_sample_sized_temporary():
    z = np.random.default_rng(1).standard_normal(2 ** 20) * (1 + 1j)
    tracemalloc.start()
    try:
        moment_report(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= z.nbytes // 16    # 1 MiB against the sample's 16 MiB


def test_moment_report_needs_two_samples(usage_error):
    # a standard error needs two draws: --samples refuses fewer
    usage_error(["tilt", "--seed", "1", "--samples", "1"], "--samples")
    usage_error(["ensemble", "--seed", "1", "--samples", "1"], "--samples")


# -- partition function ----------------------------------------------------------

def test_analytic_action_cell_single_pair():
    z_value, h_cell, stderr = partition_estimate(np.eye(2), 1.0,
                                                 method="analytic")
    assert h_cell == pytest.approx(2.0 * math.pi, rel=1e-12)
    assert z_value == h_cell
    assert stderr == 0.0


def test_analytic_action_cell_scales_with_beta_omega():
    for beta, omega in [(2.0, 1.0), (0.5, 3.0), (1.0, 0.25)]:
        _, h_cell, _ = partition_estimate(omega * np.eye(2), beta,
                                          method="analytic")
        assert h_cell == pytest.approx(2.0 * math.pi / (beta * omega), rel=1e-12)


def test_analytic_action_cell_two_pairs():
    # Z factorizes; h = Z^(1/2) is the geometric mean of the two cells
    # H = (q1^2 + p1^2)/2 + (q2^2 + p2^2)
    a = np.diag([1.0, 1.0, 2.0, 2.0])
    _, h_cell, _ = partition_estimate(a, 1.0, method="analytic")
    assert h_cell == pytest.approx(2.0 * math.pi / math.sqrt(2.0), rel=1e-12)


def test_montecarlo_action_cell_matches_analytic():
    _, h_cell, stderr = partition_estimate(np.eye(2), 1.0, method="montecarlo",
                                           samples=200_000, seed=7)
    assert stderr > 0
    assert abs(h_cell - 2.0 * math.pi) <= 4.0 * stderr
    assert abs(h_cell - 2.0 * math.pi) <= 0.01 * 2.0 * math.pi


def test_montecarlo_action_cell_is_pinned_at_the_a06_seed():
    # a06's draw, as the whole-chunk route computed it: the blocked
    # reduction keeps every float
    got = partition_estimate(np.eye(2), 1.0, method="montecarlo",
                             samples=10**6, seed=7)
    assert got == (6.287185509546762, 6.287185509546762, 0.004200221439689635)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize("pairs, samples", [(1, 10**6), (50, 20_000)])
def test_partition_holds_little_beyond_its_draw_buffer(pairs, samples):
    # the draws of a chunk are reduced in place in one (2n, chunk) buffer
    # of at most 2 x 200 000 floats: 1.31x it at one pair, 5.7x on the
    # whole-chunk route.  At 50 pairs the chunk shrinks to 4000 points;
    # the whole-chunk route drew all 20 000 at once and peaked at 15x
    dim = 2 * pairs
    buffer_bytes = 8 * dim * min(bath._DRAW_FLOATS // dim, samples)
    assert buffer_bytes <= 8 * bath._DRAW_FLOATS
    peak = _traced_peak(lambda: partition_estimate(
        np.eye(dim), 1.0, method="montecarlo", samples=samples, seed=7))
    assert peak <= 1.5 * buffer_bytes


def test_partition_rejects_bad_input(usage_error):
    usage_error(["partition", "--seed", "1", "--beta", "-1"], "--beta")
    usage_error(["partition"], "--seed")
    usage_error(["partition", "--seed", "1", "--proposal-scale", "0.7"],
                "--proposal-scale")


# -- constrained variations --------------------------------------------------------

def test_antisymmetric_generators_preserve_energy_to_first_order():
    rng = np.random.default_rng(123)
    x = rng.standard_normal(4)
    worst = 0.0
    for _ in range(100):
        gen = random_antisymmetric(4, rng)
        worst = max(worst, generator_defect(x, np.eye(4), gen))
    assert worst <= 1e-12


def test_first_order_defect_is_second_order_in_dt():
    x = np.array([0.8, -0.4, 0.3, 1.1])
    dts = np.logspace(-4, -2, 9)
    defects = gibbs_first_order_defect(x, np.eye(4), symplectic_generator(2),
                                       dts)
    slope = fit_loglog_slope(dts, defects)
    assert slope == pytest.approx(2.0, abs=0.1)


def test_generators_are_exactly_antisymmetric():
    j = symplectic_generator(3)
    np.testing.assert_array_equal(j, [[0, 1, 0, 0, 0, 0],
                                      [-1, 0, 0, 0, 0, 0],
                                      [0, 0, 0, 1, 0, 0],
                                      [0, 0, -1, 0, 0, 0],
                                      [0, 0, 0, 0, 0, 1],
                                      [0, 0, 0, 0, -1, 0]])
    rng = np.random.default_rng(5)
    for g in (j, *(random_antisymmetric(dim, rng) for dim in (1, 2, 5))):
        assert np.array_equal(g.T, -g)


@pytest.mark.parametrize("build", [
    symplectic_generator,
    lambda n: random_antisymmetric(2 * n, np.random.default_rng(1)),
    lambda n: partition_estimate(np.eye(2 * n), 1.0, method="montecarlo",
                                 samples=10, seed=1),
], ids=["symplectic", "random", "proposal"])
def test_pairs_sized_matrices_are_capped(monkeypatch, build):
    # a cap patched to one 2n x 2n matrix at n = 3 pairs: those build, one
    # pair more is refused before the matrix is allocated
    monkeypatch.setattr(errors, "MAX_SNAPSHOT_FLOATS", 6 ** 2)
    build(3)
    with pytest.raises(CapacityError):
        build(4)


# -- tilted measure ---------------------------------------------------------------

def test_tilt_shifts_the_mean_not_the_covariance():
    bp = BathParams(1.0, 1.0)
    c = 0.5 - 0.3j
    n = 100_000
    z = tilt_measure(bp, c, n, seed=9)
    assert z.shape == (n,)
    center = bp.hbar * np.conj(c)
    rep = moment_report(z)
    se_re, se_im = rep.mean_se
    assert abs(rep.mean.real - center.real) <= 4 * se_re
    assert abs(rep.mean.imag - center.imag) <= 4 * se_im
    var_re, var_im = np.var(z.real, ddof=1), np.var(z.imag, ddof=1)
    cov = np.cov(z.real, z.imag, ddof=1)[0, 1]
    var_se = max(var_re, var_im) * math.sqrt(2.0 / (n - 1))
    cov_se = math.sqrt((var_re * var_im + cov ** 2) / (n - 1))
    half = bp.hbar / 2.0
    assert abs(var_re - half) <= 4 * var_se
    assert abs(var_im - half) <= 4 * var_se
    assert abs(cov) <= 4 * cov_se


# -- sphere pushforward --------------------------------------------------------------

def _sphere_distances(radius, beta, n_samples, seed):
    """The KS distances of both marginals, as `sphere` measures them, and
    the draws."""
    t, phi, t_min = sphere_pushforward_check(radius, beta, n_samples, seed)
    ks_radial = ks_statistic(-np.expm1(-beta * (t - t_min)))
    ks_angular = ks_statistic(phi / (2.0 * math.pi))
    return ks_radial, ks_angular, t, t_min


def test_sphere_pushforward_both_marginals():
    ks_radial, ks_angular, _, _ = _sphere_distances(math.sqrt(0.5), 1.0,
                                                    100_000, 21)
    assert ks_radial < 1.63 / math.sqrt(100_000)
    assert ks_angular < 1.63 / math.sqrt(100_000)


# seed 21 is the a12 draw; at seed 3 both distances come from the lower side
@pytest.mark.parametrize("seed", [21, 3])
def test_ks_statistic_matches_scipy(seed):
    stats = pytest.importorskip("scipy.stats")
    t, phi, t_min = sphere_pushforward_check(math.sqrt(0.5), 1.0, 100_000, seed)
    radial = stats.kstest(t - t_min, stats.expon(scale=1.0).cdf)
    angular = stats.kstest(phi / (2.0 * math.pi), "uniform")
    assert ks_statistic(-np.expm1(-(t - t_min))) == radial.statistic
    assert ks_statistic(phi / (2.0 * math.pi)) == angular.statistic


def test_sphere_pipeline_holds_its_two_draw_arrays():
    # run_sphere's route: t and both model CDFs are formed in the draws'
    # arrays, and ks_statistic sorts in place and reads blocks, so the peak
    # is the 2 x 8n bytes of the draws and little more (3.0x the draws when
    # each step made a new array)
    n = 2 ** 18

    def pipeline(n):
        t, phi, t_min = sphere_pushforward_check(math.sqrt(0.5), 1.0, n, 21)
        t -= t_min
        t *= -1.0
        np.expm1(t, out=t)
        np.negative(t, out=t)
        ks_statistic(t)
        phi /= 2.0 * math.pi
        ks_statistic(phi)

    pipeline(10)    # numpy's one-time set-up of the calls is not the pipeline's
    assert _traced_peak(lambda: pipeline(n)) <= 2 * 8 * n + 8 * n // 8


def test_ks_statistic_sorts_in_place_and_reads_blocks():
    # several blocks, the last one short, and a sample of one block
    for n in (3 * bath._POINT_BLOCK + 5, 7):
        cdf = np.random.default_rng(n).uniform(size=n)
        f = np.sort(cdf)
        i = np.arange(1.0, n + 1)
        want = max(np.max(i / n - f), np.max(f - (i - 1) / n))
        assert ks_statistic(cdf) == want
        assert np.array_equal(cdf, f)


def test_tilt_holds_one_complex_array_and_one_component():
    # 24 bytes a draw at the peak, 41 when the sum of the complex parts
    # made its temporaries
    n = 2 ** 17
    bp = BathParams(1.0, 1.0)
    tilt_measure(bp, 0.5 - 0.3j, 10, seed=9)    # numpy's one-time set-up
    peak = _traced_peak(lambda: tilt_measure(bp, 0.5 - 0.3j, n, seed=9))
    assert peak <= 16 * n + 8 * n + 8 * n // 8


def test_sphere_area_is_the_action_cell():
    # R^2 = 1/(2 beta omega) makes the sphere area equal h = 2 pi/(beta omega)
    beta, omega = 2.0, 0.25
    _, _, t_min = sphere_pushforward_check(
        math.sqrt(1.0 / (2.0 * beta * omega)), beta, 100, 1)
    assert t_min == pytest.approx(0.0, abs=1e-15)

    def area_check(*argv):
        outcome = cli.evaluate(cli.build_parser().parse_args(["sphere", *argv]))
        assert outcome.code == cli.EXIT_PASS
        return {c.name: c for c in outcome.report.checks}[
            "sphere-area-matches-action-cell"]

    area = area_check("--seed", "1", "--beta", str(beta), "--omega", str(omega))
    assert area.measured == pytest.approx(2.0 * math.pi / (beta * omega),
                                             rel=1e-12)
    # --radius2 varies only the KS checks: the area is taken at the matching
    # radius, so the check reads as at the default radius
    assert area_check("--seed", "4", "--radius2", "4") == area_check(
        "--seed", "4")


def test_sphere_small_radius_shifts_the_exponential():
    # 2 beta R^2 < 1: the whole sphere is admissible but |z|^2 starts at t_min
    ks_radial, ks_angular, t, t_min = _sphere_distances(0.3, 1.0, 50_000, 4)
    assert t_min == pytest.approx(-math.log(2 * 0.09), rel=1e-12)
    assert ks_radial < 1.63 / math.sqrt(50_000)
    assert ks_angular < 1.63 / math.sqrt(50_000)
    assert float(np.min(t)) >= t_min - 1e-12


def test_sphere_large_radius_caps_the_polar_angle():
    # 2 beta R^2 > 1: only the cap u <= 1/(2 beta R^2) maps to non-negative
    # |z|^2
    ks_radial, ks_angular, t, t_min = _sphere_distances(2.0, 1.0, 50_000, 4)
    assert t_min == 0.0
    assert ks_radial < 1.63 / math.sqrt(50_000)
    assert ks_angular < 1.63 / math.sqrt(50_000)
    assert float(np.min(t)) >= -1e-12


def test_sphere_validation(usage_error):
    # a radius outside (0, inf) comes only from a derived float that left
    # the range, a numerical failure
    for radius in (0.0, math.inf, math.nan):
        with pytest.raises(FloatingPointError):
            sphere_pushforward_check(radius, 1.0, 10, 1)
    usage_error(["sphere", "--seed", "1", "--beta", "-2"], "--beta")
    usage_error(["sphere", "--seed", "1", "--radius2", "-1"], "--radius2")
    usage_error(["sphere", "--seed", "1", "--samples", "9"], "--samples")
    usage_error(["sphere"], "--seed")
