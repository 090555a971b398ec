"""Four independent realizations of the same rotation, checked against each
other: coefficient phases, circle transport, the diagonal propagator, and
classical ensembles; plus the weakly damped extensions of each.
"""

import math
import warnings

import numpy as np
import pytest

from thermofock import dynamics
from thermofock.bargmann import FockVector, coherent_vector
from thermofock.dynamics import (
    AngularProfile,
    DampingParams,
    damped_solution,
    ensemble_evolve,
    evolve_exact,
    l2_grid_distance,
    profile_from_fock,
    schrodinger_evolve,
    transport_solve,
)
from thermofock.errors import SamplerError
from thermofock.fits import fit_decay_rate
from thermofock.phasespace import OscillatorParams, PhasePoint, hamilton_step


# -- profiles -------------------------------------------------------------------

def test_profile_matches_pointwise_evaluation():
    f = coherent_vector(0.4 + 0.2j, 24, 1.0)
    prof = profile_from_fock(f, radius=1.3, grid_size=64)
    z = 1.3 * np.exp(2j * np.pi * np.arange(64) / 64)
    np.testing.assert_allclose(prof.values, f.evaluate(z), atol=1e-12)


def test_profile_validation(usage_error):
    with pytest.raises(ValueError):
        AngularProfile(np.ones((2, 4)), 1.0)
    # too few grid points, or a circle of no radius, never reach the profile
    usage_error(["evolve", "--seed", "1", "--grid", "3"], "--grid")
    usage_error(["evolve", "--seed", "1", "--radius", "-1"], "--radius")


def test_l2_distance_shapes_must_match():
    with pytest.raises(ValueError):
        l2_grid_distance(np.ones(4), np.ones(5))


def test_l2_distance_does_not_overflow():
    # squaring differences past ~1e154 overflows, and below ~1e-154
    # underflows; the scaled sum does neither, and in between it is the
    # plain RMS bit for bit
    rng = np.random.default_rng(2)
    a = rng.standard_normal(54) + 1j * rng.standard_normal(54)
    b = rng.standard_normal(54) + 1j * rng.standard_normal(54)
    unit = l2_grid_distance(a, b)
    for scale in (1e-8, 1.0, 3.0, 1e100):
        plain = float(np.sqrt(np.mean(np.abs(scale * (a - b)) ** 2)))
        assert l2_grid_distance(scale * a, scale * b) == plain
    for scale in (1e-300, 1e250):
        assert l2_grid_distance(scale * a, scale * b) == pytest.approx(
            scale * unit, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = l2_grid_distance(np.array([1e200, 0.0, 0.0, 0.0]), np.zeros(4))
    assert big == pytest.approx(5e199, rel=1e-15)
    assert l2_grid_distance(np.ones(4), np.ones(4)) == 0.0
    assert math.isnan(l2_grid_distance(np.array([math.nan, 0.0]), np.zeros(2)))
    assert l2_grid_distance(np.array([math.inf, 0.0]), np.zeros(2)) == math.inf


# -- transport -------------------------------------------------------------------

def test_spectral_transport_full_revolution_is_identity():
    rng = np.random.default_rng(0)
    prof = AngularProfile(rng.standard_normal(128) + 1j * rng.standard_normal(128), 1.0)
    params = OscillatorParams(2.0)
    out = transport_solve(prof, params.period, params)
    assert l2_grid_distance(out, prof) <= 1e-12


def test_spectral_transport_of_a_pure_harmonic():
    # e^{i m phi} picks up exactly e^{-i m w t}
    g = 64
    phi = 2.0 * np.pi * np.arange(g) / g
    prof = AngularProfile(np.exp(3j * phi), 1.0)
    params = OscillatorParams(1.0)
    t = 0.7
    out = transport_solve(prof, t, params)
    np.testing.assert_allclose(out.values, np.exp(-3j * t) * prof.values, atol=1e-12)


def test_spectral_transport_agrees_with_schrodinger_profile():
    # evolve the state, then sample -- or sample, then transport: same grid
    f = coherent_vector(0.5, 24, 1.0).normalized()
    params = OscillatorParams(1.0)
    t = 10.0 / params.omega
    prof0 = profile_from_fock(f, radius=1.0, grid_size=512)
    transported = transport_solve(prof0, t, params)
    evolved = profile_from_fock(schrodinger_evolve(f, t, "normal", params),
                                radius=1.0, grid_size=512)
    assert l2_grid_distance(transported, evolved) <= 1e-8


def test_upwind_transport_on_a_smooth_profile():
    f = coherent_vector(0.5, 24, 1.0).normalized()
    params = OscillatorParams(1.0)
    g = 512
    dphi = 2.0 * np.pi / g
    dt = 0.5 * dphi / params.omega          # CFL number 0.5
    t = 1.0 / params.omega
    prof0 = profile_from_fock(f, radius=1.0, grid_size=g)
    upwind = transport_solve(prof0, t, params, scheme="upwind", dt=dt)
    exact = transport_solve(prof0, t, params)
    assert l2_grid_distance(upwind, exact) < 1e-2


def test_upwind_error_is_first_order_under_refinement():
    # refine grid and step together at fixed CFL: the error halves each time
    # (at fixed grid, shrinking dt alone *raises* the numerical diffusion)
    f = coherent_vector(0.5, 24, 1.0).normalized()
    params = OscillatorParams(1.0)
    errs = []
    for g in (256, 512, 1024):
        dt = 0.5 * (2.0 * np.pi / g)
        prof0 = profile_from_fock(f, radius=1.0, grid_size=g)
        exact = transport_solve(prof0, 1.0, params)
        errs.append(l2_grid_distance(
            transport_solve(prof0, 1.0, params, "upwind", dt), exact))
    assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.2)
    assert errs[1] / errs[2] == pytest.approx(2.0, abs=0.2)


def test_upwind_rejects_cfl_violation():
    prof = AngularProfile(np.ones(16), 1.0)
    params = OscillatorParams(1.0)
    dphi = 2.0 * np.pi / 16
    with pytest.raises(ValueError):
        transport_solve(prof, 10.0, params, scheme="upwind", dt=3.0 * dphi)


def test_transport_argument_validation(usage_error):
    prof = AngularProfile(np.ones(16), 1.0)
    params = OscillatorParams(1.0)
    usage_error(["evolve", "--seed", "1", "--t-max", "-1"], "--t-max")
    with pytest.raises(ValueError):
        transport_solve(prof, 1.0, params, scheme="upwind")   # dt missing
    with pytest.raises(ValueError):
        transport_solve(prof, 1.0, params, scheme="lax")


# -- quantum evolution --------------------------------------------------------------

def test_exact_evolution_rotates_the_coherent_center():
    c, hbar, t = 0.6 - 0.1j, 1.0, 1.234
    params = OscillatorParams(1.0)
    f = coherent_vector(c, 32, hbar)
    rotated = coherent_vector(c * np.exp(-1j * params.omega * t), 32, hbar)
    np.testing.assert_allclose(evolve_exact(f, t, params).coeffs, rotated.coeffs,
                               atol=1e-12)


def test_schrodinger_normal_matches_exact():
    rng = np.random.default_rng(3)
    f = FockVector(rng.standard_normal(25) + 1j * rng.standard_normal(25), 0.7)
    params = OscillatorParams(1.3)
    a = schrodinger_evolve(f, 2.1, "normal", params)
    b = evolve_exact(f, 2.1, params)
    np.testing.assert_allclose(a.coeffs, b.coeffs, atol=1e-12)


def test_symmetric_ordering_adds_a_global_phase_only():
    rng = np.random.default_rng(4)
    f = FockVector(rng.standard_normal(16) + 1j * rng.standard_normal(16), 1.0)
    params = OscillatorParams(1.0)
    t = 3.7
    sym = schrodinger_evolve(f, t, "symmetric", params)
    norm = schrodinger_evolve(f, t, "normal", params)
    phase = np.exp(-1j * params.omega * t / 2.0)
    np.testing.assert_allclose(sym.coeffs, phase * norm.coeffs, atol=1e-12)


def test_evolution_preserves_the_norm():
    f = coherent_vector(0.8, 40, 1.0).normalized()
    params = OscillatorParams(2.0)
    assert schrodinger_evolve(f, 5.0, "symmetric", params).norm() == pytest.approx(1.0)


# -- damped motion --------------------------------------------------------------------

def test_damped_solution_alpha_zero_is_the_free_oscillation():
    params = OscillatorParams(1.5)
    t = np.linspace(0.0, 10.0, 200)
    sol = damped_solution(1.0, 0.0, params, DampingParams(0.0), t)
    np.testing.assert_allclose(sol.q, np.cos(1.5 * t), atol=1e-12)
    np.testing.assert_allclose(sol.p, -np.sin(1.5 * t), atol=1e-12)


def test_damped_solution_initial_conditions():
    params = OscillatorParams(2.0)
    q0, v0 = 0.7, -0.4
    sol0 = damped_solution(q0, v0, params, DampingParams(0.02), 0.0)
    assert sol0.q == pytest.approx(q0, rel=1e-12)
    assert sol0.p * params.omega == pytest.approx(v0, rel=1e-12)


def test_damped_solution_envelope_rate():
    params = OscillatorParams(1.0)
    alpha = 0.01
    t = np.linspace(0.0, 400.0, 4001)
    sol = damped_solution(1.0, 0.0, params, DampingParams(alpha), t)
    amp = np.sqrt(0.5 * (sol.q ** 2 + sol.p ** 2))
    rate = fit_decay_rate(t, amp)
    assert rate == pytest.approx(alpha / 2.0, rel=0.01)


def test_damped_solution_matches_leapfrog():
    # the closed form keeps the undamped frequency, so it trails the true
    # (leapfrog) dynamics by the alpha^2/(8 w) frequency shift -- budget it
    params = OscillatorParams(1.0)
    alpha = 0.01
    dt = params.period / 2048
    n = 4096
    t = n * dt
    x = PhasePoint(1.0, 0.0)
    for _ in range(n):
        x = hamilton_step(x, params, dt, friction=alpha)
    closed = damped_solution(1.0, 0.0, params, DampingParams(alpha), t)
    budget = 2.0 * alpha ** 2 * t / (8.0 * params.omega) + 10.0 * dt ** 2
    assert x.q == pytest.approx(closed.q, abs=budget)
    assert x.p == pytest.approx(closed.p, abs=budget)


def test_damped_solution_warns_when_damping_is_not_small():
    params = OscillatorParams(1.0)
    with pytest.warns(UserWarning):
        damped_solution(1.0, 0.0, params, DampingParams(0.5), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        damped_solution(1.0, 0.0, params, DampingParams(0.01), 1.0)


def test_damping_params_validation(usage_error):
    for value in ("-0.1", "inf"):
        usage_error(["ensemble", "--seed", "1", "--alpha", value], "--alpha")
    usage_error(["damp", "--alpha", "0"], "--alpha")


# -- density sampling -------------------------------------------------------------------

def test_coefficient_majorant_dominates_the_state():
    # the sampler's bound A(r) is the state with |c_n| evaluated at real r
    rng = np.random.default_rng(5)
    f = FockVector(rng.standard_normal(12) + 1j * rng.standard_normal(12), 1.0)
    majorant = FockVector(np.abs(f.coeffs), f.hbar)
    for r in (0.1, 0.8, 2.0, 4.0):
        z = r * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        bound = majorant.evaluate(r)
        assert bound.imag == 0.0
        assert np.max(np.abs(f.evaluate(z))) <= bound.real * (1 + 1e-12)


def _draws(f, n_samples, seed):
    """The ensemble's initial cloud: the sampler's draws, bit for bit."""
    return dynamics._rejection_sample(f, n_samples, seed, 2.0)[0]


def _initial_cloud(f, n_samples, seed, **kwargs):
    return ensemble_evolve(f, OscillatorParams(1.0), [0.0], n_samples, seed,
                           **kwargs)


def test_sampled_density_moments_match_the_gaussian():
    # |f_c|^2 dmu is a Gaussian centered at hbar conj(c) with variance hbar
    c, hbar = 0.5, 1.0
    f = coherent_vector(c, 32, hbar).normalized()
    z = _initial_cloud(f, 100_000, seed=7).final_z
    n = z.size
    center = hbar * np.conj(c)
    se_mean = np.std(z.real, ddof=1) / math.sqrt(n)
    assert abs(np.mean(z.real) - center.real) <= 4 * se_mean
    assert abs(np.mean(z.imag) - center.imag) <= 4 * np.std(z.imag, ddof=1) / math.sqrt(n)
    spread = np.abs(z - center) ** 2
    assert abs(np.mean(spread) - hbar) <= 4 * np.std(spread, ddof=1) / math.sqrt(n)


def test_sampler_guards(usage_error):
    usage_error(["ensemble"], "--seed")
    usage_error(["ensemble", "--seed", "1", "--proposal-scale", "0.9"],
                "--proposal-scale")
    unnormalized = coherent_vector(0.5, 32, 1.0)
    with pytest.raises(ValueError):
        _initial_cloud(unnormalized, 100, seed=1)


def test_sampler_efficiency_collapse_raises():
    f = coherent_vector(0.5, 32, 1.0).normalized()
    with pytest.raises(SamplerError):
        _initial_cloud(f, 50, seed=3, proposal_scale=1000.0)


def test_acceptance_rate_counts_every_accepted_draw():
    # a chunk of 10 000 proposals overshoots 100 samples; its surplus of
    # accepted draws still measures the rate
    f = coherent_vector(0.5, 32, 1.0).normalized()
    small = _initial_cloud(f, 100, seed=1).acceptance_rate
    large = _initial_cloud(f, 100_000, seed=1).acceptance_rate
    assert abs(small - large) <= 0.05


# -- ensembles ------------------------------------------------------------------------------

def test_vacuum_ensemble_is_stationary():
    f = FockVector(np.eye(9)[0], 1.0)
    params = OscillatorParams(1.0)
    times = np.linspace(0.0, 2.0 * np.pi, 5)
    hist = ensemble_evolve(f, params, times, 20_000, seed=7)
    for rep in hist.moments:
        se_re, se_im = rep.mean_se
        assert abs(rep.mean.real) <= 4 * se_re
        assert abs(rep.mean.imag) <= 4 * se_im
        assert abs(rep.abs2_mean - 1.0) <= 4 * rep.abs2_se
    assert 0.0 < hist.acceptance_rate <= 1.0


def test_coherent_ensemble_mean_follows_the_rotating_center():
    c, hbar = 0.5, 1.0
    f = coherent_vector(c, 32, hbar).normalized()
    params = OscillatorParams(1.0)
    times = np.linspace(0.0, 2.0 * np.pi, 8)
    hist = ensemble_evolve(f, params, times, 50_000, seed=7)
    for t, rep in zip(times, hist.moments):
        expected = hbar * np.conj(c) * np.exp(-1j * params.omega * t)
        se_re, se_im = rep.mean_se
        assert abs(rep.mean.real - expected.real) <= 4 * se_re
        assert abs(rep.mean.imag - expected.imag) <= 4 * se_im


def test_damped_ensemble_contracts_both_moments():
    # deterministic friction: <z> shrinks at alpha/2, <|z|^2> at alpha,
    # with no thermal floor (the cloud is contracted, not reheated)
    c, hbar = 0.5, 1.0
    alpha = 0.01   # weak damping, where the constant-frequency form is valid
    f = coherent_vector(c, 32, hbar).normalized()
    params = OscillatorParams(1.0)
    times = np.array([0.0, 20.0, 40.0])
    hist = ensemble_evolve(f, params, times, 50_000, seed=7,
                           damping=DampingParams(alpha))
    for t, rep in zip(times, hist.moments):
        mean_exp = hbar * np.conj(c) * np.exp((-1j * params.omega - alpha / 2.0) * t)
        se_re, se_im = rep.mean_se
        assert abs(rep.mean.real - mean_exp.real) <= 4 * se_re
        assert abs(rep.mean.imag - mean_exp.imag) <= 4 * se_im
        abs2_exp = math.exp(-alpha * t) * (hbar + hbar ** 2 * abs(c) ** 2)
        assert abs(rep.abs2_mean - abs2_exp) <= 4 * rep.abs2_se


def _interval_map(params, h, n_sub, friction):
    # the unit vectors stepped n_sub times: columns of the interval's 2x2 map
    m = PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for _ in range(n_sub):
        m = hamilton_step(m, params, h, friction=friction)
    return (float(m.q[0]), float(m.q[1])), (float(m.p[0]), float(m.p[1]))


def test_ensemble_cloud_moves_by_the_interval_maps_bit_for_bit():
    # the cloud moves once per interval by the map of its leapfrog steps;
    # each particle must get the same floats as moving it alone by those maps
    f = coherent_vector(0.5, 16, 1.0).normalized()
    params = OscillatorParams(1.3)
    times = [0.0, 0.6, 0.6, 1.2]
    hist = ensemble_evolve(f, params, times, 40, seed=11,
                           damping=DampingParams(0.2), dt=0.3)
    maps = [_interval_map(params, (b - a) / 2, 2, 0.2)
            for a, b in ((0.0, 0.6), (0.6, 1.2))]
    expected = []
    for z in _draws(f, 40, seed=11):
        q, p = math.sqrt(2.0) * z.real, math.sqrt(2.0) * z.imag
        for (m00, m01), (m10, m11) in maps:
            q, p = m00 * q + m01 * p, m10 * q + m11 * p
        expected.append((q + 1j * p) * (2.0 ** -0.5))
    assert hist.final_z.tobytes() == np.array(expected).tobytes()


def test_ensemble_cloud_matches_per_draw_leapfrog_steps():
    # composing an interval's 512 steps into one map only reorders rounding
    f = coherent_vector(0.5, 16, 1.0).normalized()
    params = OscillatorParams(1.3)
    period = params.period
    hist = ensemble_evolve(f, params, [0.0, period / 2, period], 64, seed=11,
                           damping=DampingParams(0.05))
    expected = []
    for z in _draws(f, 64, seed=11):
        x = PhasePoint(math.sqrt(2.0) * z.real, math.sqrt(2.0) * z.imag)
        for a, b in ((0.0, period / 2), (period / 2, period)):
            for _ in range(512):
                x = hamilton_step(x, params, (b - a) / 512, friction=0.05)
        expected.append((x.q + 1j * x.p) * (2.0 ** -0.5))
    np.testing.assert_allclose(hist.final_z, expected, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.05])
def test_ensemble_interval_map_matches_the_cayley_hamilton_power(alpha):
    # one leapfrog step is A = kick decay drift decay kick with det A = d =
    # exp(-alpha h); for A_hat = A / sqrt(d), cos(theta) = tr(A_hat) / 2,
    # Cayley-Hamilton gives A^n = d^{n/2} [sin(n theta) A_hat
    # - sin((n-1) theta) I] / sin(theta)
    params = OscillatorParams(1.0)
    n = 54
    t = n * params.period / 1024           # 54 steps of the default dt
    h = t / n
    wh = params.omega * h
    kick = np.array([[1.0, 0.0], [-0.5 * wh, 1.0]])
    decay = np.diag([1.0, math.exp(-0.5 * alpha * h)])
    drift = np.array([[1.0, wh], [0.0, 1.0]])
    d = math.exp(-alpha * h)
    a_hat = kick @ decay @ drift @ decay @ kick / math.sqrt(d)
    theta = math.acos(0.5 * np.trace(a_hat))
    if alpha == 0.0:
        # the shadow frequency of the frictionless leapfrog
        assert math.isclose(theta / h, 2.0 / h * math.asin(wh / 2.0),
                            rel_tol=1e-10)
    power = d ** (n / 2) / math.sin(theta) * (
        math.sin(n * theta) * a_hat - math.sin((n - 1) * theta) * np.eye(2))
    f = coherent_vector(0.5, 16, 1.0).normalized()
    hist = ensemble_evolve(f, params, [0.0, t], 64, seed=11,
                           damping=DampingParams(alpha))
    z0 = _draws(f, 64, seed=11)
    x = power @ np.array([z0.real, z0.imag])
    np.testing.assert_allclose(hist.final_z, x[0] + 1j * x[1],
                               rtol=1e-12, atol=0.0)


def test_ensemble_validation(usage_error):
    f = FockVector(np.eye(5)[0], 1.0)
    with pytest.raises(ValueError):
        ensemble_evolve(f, OscillatorParams(1.0), [[0.5]], 100, seed=1)
    # the CLI's time grids run forward from 0 over at least one time
    for flag, value in (("--omega", "0"), ("--t-max", "-1"),
                        ("--t-max", "nan"), ("--n-times", "0")):
        usage_error(["ensemble", "--seed", "1", flag, value], flag)
