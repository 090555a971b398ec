"""Four independent realizations of the same rotation, checked against each
other: coefficient phases, circle transport, the diagonal propagator, and
classical ensembles; plus the weakly damped extensions of each.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from thermofock import cli, dynamics
from thermofock.bargmann import FockVector, coherent_vector
from thermofock.bath import SAMPLE_BLOCK, moment_report
from thermofock.dynamics import (
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
    np.testing.assert_allclose(prof, f.evaluate(z), atol=1e-12)


def test_profile_validation(usage_error):
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
    prof = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    params = OscillatorParams(2.0)
    out = transport_solve(prof, params.period, params)
    assert l2_grid_distance(out, prof) <= 1e-12


def test_spectral_transport_of_a_pure_harmonic():
    # e^{i m phi} picks up exactly e^{-i m w t}
    g = 64
    phi = 2.0 * np.pi * np.arange(g) / g
    prof = np.exp(3j * phi)
    params = OscillatorParams(1.0)
    t = 0.7
    out = transport_solve(prof, t, params)
    np.testing.assert_allclose(out, np.exp(-3j * t) * prof, atol=1e-12)


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
    prof = np.ones(16, dtype=complex)
    params = OscillatorParams(1.0)
    dphi = 2.0 * np.pi / 16
    with pytest.raises(ValueError):
        transport_solve(prof, 10.0, params, scheme="upwind", dt=3.0 * dphi)


def test_transport_argument_validation(usage_error):
    prof = np.ones(16, dtype=complex)
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
    sol = damped_solution(1.0, 0.0, params, 0.0, t)
    np.testing.assert_allclose(sol.q, np.cos(1.5 * t), atol=1e-12)
    np.testing.assert_allclose(sol.p, -np.sin(1.5 * t), atol=1e-12)


def test_damped_solution_initial_conditions():
    params = OscillatorParams(2.0)
    q0, v0 = 0.7, -0.4
    sol0 = damped_solution(q0, v0, params, 0.02, 0.0)
    assert sol0.q == pytest.approx(q0, rel=1e-12)
    assert sol0.p * params.omega == pytest.approx(v0, rel=1e-12)


def test_damped_solution_envelope_rate():
    params = OscillatorParams(1.0)
    alpha = 0.01
    t = np.linspace(0.0, 400.0, 4001)
    sol = damped_solution(1.0, 0.0, params, alpha, t)
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
    closed = damped_solution(1.0, 0.0, params, alpha, t)
    budget = 2.0 * alpha ** 2 * t / (8.0 * params.omega) + 10.0 * dt ** 2
    assert x.q == pytest.approx(closed.q, abs=budget)
    assert x.p == pytest.approx(closed.p, abs=budget)


def test_damped_solution_warns_when_damping_is_not_small():
    params = OscillatorParams(1.0)
    with pytest.warns(UserWarning):
        damped_solution(1.0, 0.0, params, 0.5, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        damped_solution(1.0, 0.0, params, 0.01, 1.0)


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


def _sample(f, n_samples, seed, scale=2.0):
    """The sampler's streamed blocks joined into one array, and the rate
    handed on with the last block."""
    blocks = []
    for block, rate in dynamics._rejection_sample(f, n_samples, seed, scale):
        blocks.append(block.copy())    # the next block reuses the buffer
    return np.concatenate(blocks), rate


def _draws(f, n_samples, seed):
    """The ensemble's initial cloud: the sampler's draws, bit for bit."""
    return _sample(f, n_samples, seed)[0]


def _final_cloud(f, params, times, n_samples, seed, friction=0.0, dt=None):
    """The cloud at the last of `times`, as ensemble_evolve moves it: each
    streamed block through every interval map by the block kernel."""
    if dt is None:
        dt = (2.0 * math.pi / params.omega) / 1024.0
    maps = dynamics._interval_maps(params, np.asarray(times, dtype=float),
                                   dt, friction)
    scratch = np.empty((2, SAMPLE_BLOCK))
    blocks = []
    for block, _ in dynamics._rejection_sample(f, n_samples, seed, 2.0):
        for m in maps:
            if m is not None:
                dynamics._move_cloud(block, m, scratch)
        blocks.append(block.copy())
    return np.concatenate(blocks)


def _report_bits(report):
    return [float(v).hex() for v in (report.mean.real, report.mean.imag,
                                     *report.mean_se, report.abs2_mean,
                                     report.abs2_se)]


def _initial_cloud(f, n_samples, seed, **kwargs):
    return ensemble_evolve(f, OscillatorParams(1.0), [0.0], n_samples, seed,
                           **kwargs)


def test_sampled_density_moments_match_the_gaussian():
    # |f_c|^2 dmu is a Gaussian centered at hbar conj(c) with variance hbar
    c, hbar = 0.5, 1.0
    f = coherent_vector(c, 32, hbar).normalized()
    z = _draws(f, 100_000, seed=7)
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
    # the centred proposal accepts 1/(1.05 s) of a coherent state's draws:
    # 4.8e-4 at s = 2000, half the 1e-3 floor (at s = 1000 it sits on it)
    f = coherent_vector(0.5, 32, 1.0).normalized()
    for seed in (3, 4, 12):
        with pytest.raises(SamplerError):
            _initial_cloud(f, 50, seed=seed, proposal_scale=2000.0)


@pytest.mark.parametrize("c, hbar", [(0.5, 1.0), (1.2, 1.0), (2.0, 1.0),
                                     (0.8 - 0.6j, 0.5), (None, 1.0)],
                         ids=["c0.5", "c1.2", "c2", "complex-c", "e3"])
def test_shifted_majorant_dominates_on_circles(c, hbar):
    # G(|u|) >= |g(u)|, g(u) = f(mu + u) exp(-conj(mu) u / hbar), on random
    # circles about the proposal's centre; e_3 is centred at 0, where G is
    # the coefficient majorant of f itself
    if c is None:
        f = FockVector(np.eye(4)[3], hbar)
    else:
        f = coherent_vector(c, 32, hbar).normalized()
    mu = dynamics.cloud_centre(f)
    assert abs(mu - (0.0 if c is None else hbar * np.conj(c))) <= 1e-12
    _, majorant = dynamics._shifted_majorant(f, mu, 12.0)
    rng = np.random.default_rng(3)
    for r in (0.0, 0.05, 0.4, 1.0, 2.5, 5.0, 9.0, 14.0, 30.0, 60.0):
        u = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 400))
        g = f.evaluate(mu + u) * np.exp(-np.conj(mu) * u / hbar)
        assert np.max(np.abs(g)) <= majorant(np.array([r]))[0] * (1 + 1e-12)


@pytest.mark.parametrize("c", [0.5, 1.2, 2.0])
def test_centred_sampler_accepts_near_its_slack(c):
    # g is nearly constant for a coherent state, so acceptance sits near
    # 1/(1.05 s) = 0.476 wherever the cloud is (uncentred: 11 % at c = 1.2,
    # 0.87 % at c = 2)
    f = coherent_vector(c, 32, 1.0).normalized()
    z, rate = _sample(f, 20_000, 7)
    assert rate >= 0.45
    assert abs(np.mean(z) - np.conj(c)) <= 4 * np.std(z) / math.sqrt(z.size)


def test_ensemble_at_c_two_passes_with_high_acceptance():
    outcome = cli.evaluate(cli.build_parser().parse_args(
        ["ensemble", "--c", "2", "--seed", "7"]))
    assert outcome.code == cli.EXIT_PASS
    checks = {c.name: c for c in outcome.report.checks}
    assert checks["sampler-efficiency"].measured >= 0.45


# sha256 of the draws' bytes, pinned from the sampler that proposed around
# 0 in chunks of max(10 000, 2 (n - filled)): at mu = 0 the centred sampler
# must draw the same bits, and below _PROPOSAL_CHUNK / 2 samples its chunks
# are the same
UNCENTRED_DIGESTS = {
    ("e0", 1.0, 2.0, 5):
        "71913522d33b88410ee7e7b7866b042db3145a1dff66d79886b06b989aec5e47",
    ("e0", 0.5, 3.0, 11):
        "15ec59f42b6a3c9fa20bc1b8f272e57bf0ea298cee63ec740a44f7061167a4d9",
    ("e3", 1.0, 2.0, 5):
        "a5b6469821d980614b254639f633fc156ae008162c22c70a96650a7b6e13cd18",
    ("e3", 0.5, 3.0, 11):
        "f96632b45d6685b63bf7572803f5ee9acb26ccc6e22d0cd0725c7b36d21f015d",
}


@pytest.mark.parametrize("key", sorted(UNCENTRED_DIGESTS),
                         ids=lambda key: "-".join(map(str, key)))
def test_states_centred_at_zero_draw_as_before(key):
    name, hbar, scale, seed = key
    level = int(name[1])
    f = FockVector(np.eye(level + 1)[level], hbar)
    z, _ = _sample(f, 20_000, seed, scale)
    assert hashlib.sha256(z.tobytes()).hexdigest() == UNCENTRED_DIGESTS[key]


# sha256 of the draws' bytes for a state centred off 0 (c = 1.2, mu = 1.2),
# pinned from the sampler that formed each chunk's density and ratio over
# the whole chunk: 100 000 samples take a full chunk of _PROPOSAL_CHUNK
# proposals, then a shorter one
CENTRED_DIGEST = ("e1f628310648739e3f8bd41c568f9203"
                  "922946d76f127b09e4caf76e7bebfc44")


def test_state_centred_off_zero_draws_as_before():
    f = coherent_vector(1.2, 32, 1.0).normalized()
    z, rate = _sample(f, 100_000, 7)
    assert hashlib.sha256(z.tobytes()).hexdigest() == CENTRED_DIGEST
    assert rate.hex() == "0x1.e85b98221f944p-2"


# sha256 of the final cloud and of the moment reports' floats.  The cloud's
# is pinned from the ensemble that held every particle and moved the draws'
# real and imaginary parts in place; the moments' from the one that streams
# blocks of SAMPLE_BLOCK particles and merges their moments (the whole-array
# sums differed by at most 9.1e-16 relative).  2**16 + 1 particles leave a
# one-point last block, 2**17 + 5 a five-point one
ENSEMBLE_DIGESTS = {
    2 ** 16 + 1: ("9531fa9da01b5e88d7b123b43f42a2c11b7974ec52854e35d8b649957d336c41",
                  "2c2d5c791cfd71797fddbeb8c3f5532e53b5546e7463e9dc9af2a7ec3b526879"),
    2 ** 17 + 5: ("79f0bdf7ad5f63a295982b7a8e70a88f5419fecbc2083d400b96377170d8cc62",
                  "0e3f6d5829360dd761ebf6b5a47c939fee91925cc44d92953598c74628e86b77"),
}


@pytest.mark.parametrize("n", sorted(ENSEMBLE_DIGESTS))
def test_ensemble_blocks_move_the_cloud_as_before(n):
    f = coherent_vector(0.5, 32, 1.0).normalized()
    params, times = OscillatorParams(1.3), np.linspace(0.0, 2.0 * np.pi, 5)
    hist = ensemble_evolve(f, params, times, n, seed=11, friction=0.05)
    final = _final_cloud(f, params, times, n, seed=11, friction=0.05)
    moments = np.array([(m.mean.real, m.mean.imag, *m.mean_se, m.abs2_mean,
                         m.abs2_se) for m in hist.moments])
    assert (hashlib.sha256(final.tobytes()).hexdigest(),
            hashlib.sha256(moments.tobytes()).hexdigest()) == ENSEMBLE_DIGESTS[n]
    assert _report_bits(hist.moments[-1]) == _report_bits(moment_report(final))


def test_trailing_zero_coefficients_leave_the_draws_unchanged():
    f = coherent_vector(0.7 - 0.2j, 20, 1.0).normalized()
    padded = FockVector(np.concatenate([f.coeffs, np.zeros(500)]), f.hbar)
    assert dynamics._trimmed(padded).truncation == f.truncation
    a, rate_a = _sample(f, 5_000, 2)
    b, rate_b = _sample(padded, 5_000, 2)
    assert a.tobytes() == b.tobytes() and rate_a == rate_b


def test_ensemble_memory_is_fixed_whatever_the_samples():
    # one block of SAMPLE_BLOCK particles and its (2, SAMPLE_BLOCK) map
    # scratch (0.5 MiB each), the sampler's 1 MiB proposal chunk, its normal
    # draws and point-block temporaries: 2.8 MiB at a million particles, as
    # at 3e5, against 18.2 MiB for the ensemble that held every particle
    n = 10 ** 6
    f = coherent_vector(0.5, 32, 1.0).normalized()
    tracemalloc.start()
    try:
        ensemble_evolve(f, OscillatorParams(1.0),
                        np.linspace(0.0, 2.0 * np.pi, 20), n, seed=7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_sampler_holds_one_proposal_chunk_beyond_its_output():
    # its output is one block of SAMPLE_BLOCK draws (0.5 MiB); besides it,
    # one complex proposal buffer and one boolean mask of _PROPOSAL_CHUNK
    # points and the RNG's chunk-sized normal draws: 2.3 MiB, where the
    # sampler that returned every draw held 16 n + 2.3 MiB
    n = 300_000
    f = coherent_vector(0.5, 32, 1.0).normalized()
    _sample(f, 10, 1)   # numpy's one-off allocations
    tracemalloc.start()
    try:
        for _ in dynamics._rejection_sample(f, n, 7, 2.0):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * 2 ** 20


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
                           friction=alpha)
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
    # the cloud moves once per interval by the map of its leapfrog steps,
    # applied to (Re z, Im z); each particle must get the same floats as
    # moving it alone by those maps, and the last report must be the
    # moments of those particles
    f = coherent_vector(0.5, 16, 1.0).normalized()
    params = OscillatorParams(1.3)
    times = [0.0, 0.6, 0.6, 1.2]
    hist = ensemble_evolve(f, params, times, 40, seed=11,
                           friction=0.2, dt=0.3)
    maps = [_interval_map(params, (b - a) / 2, 2, 0.2)
            for a, b in ((0.0, 0.6), (0.6, 1.2))]
    expected = []
    for z in _draws(f, 40, seed=11):
        x, y = z.real, z.imag
        for (m00, m01), (m10, m11) in maps:
            x, y = m00 * x + m01 * y, m10 * x + m11 * y
        expected.append(complex(x, y))
    expected = np.array(expected)
    final = _final_cloud(f, params, times, 40, seed=11, friction=0.2, dt=0.3)
    assert final.tobytes() == expected.tobytes()
    assert _report_bits(hist.moments[-1]) == _report_bits(moment_report(expected))


def test_ensemble_report_at_time_zero_is_the_draws():
    # no map moves the cloud before t = 0, so the first report is the
    # sampler's draws' own, bit for bit
    f = coherent_vector(0.5 - 0.3j, 16, 1.0).normalized()
    hist = ensemble_evolve(f, OscillatorParams(1.3), [0.0, 0.6], 5_000,
                           seed=11, friction=0.2)
    bits = [[float(v).hex() for v in (m.mean.real, m.mean.imag, *m.mean_se,
                                      m.abs2_mean, m.abs2_se)]
            for m in (hist.moments[0],
                      moment_report(_draws(f, 5_000, seed=11)))]
    assert bits[0] == bits[1]


def test_ensemble_cloud_matches_per_draw_leapfrog_steps():
    # composing an interval's 512 steps into one map only reorders rounding
    f = coherent_vector(0.5, 16, 1.0).normalized()
    params = OscillatorParams(1.3)
    period = params.period
    final = _final_cloud(f, params, [0.0, period / 2, period], 64, seed=11,
                         friction=0.05)
    expected = []
    for z in _draws(f, 64, seed=11):
        x = PhasePoint(math.sqrt(2.0) * z.real, math.sqrt(2.0) * z.imag)
        for a, b in ((0.0, period / 2), (period / 2, period)):
            for _ in range(512):
                x = hamilton_step(x, params, (b - a) / 512, friction=0.05)
        expected.append((x.q + 1j * x.p) * (2.0 ** -0.5))
    np.testing.assert_allclose(final, expected, rtol=1e-13, atol=0.0)


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
    final = _final_cloud(f, params, [0.0, t], 64, seed=11, friction=alpha)
    z0 = _draws(f, 64, seed=11)
    x = power @ np.array([z0.real, z0.imag])
    np.testing.assert_allclose(final, x[0] + 1j * x[1],
                               rtol=1e-12, atol=0.0)


def test_ensemble_validation(usage_error):
    f = FockVector(np.eye(5)[0], 1.0)
    with pytest.raises(ValueError):
        ensemble_evolve(f, OscillatorParams(1.0), [[0.5]], 100, seed=1)
    # the CLI's time grids run forward from 0 over at least one time
    for flag, value in (("--omega", "0"), ("--t-max", "-1"),
                        ("--t-max", "nan"), ("--n-times", "0")):
        usage_error(["ensemble", "--seed", "1", flag, value], flag)
