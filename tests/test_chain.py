"""Oscillator-chain field model: mode decomposition, dispersion, integration,
continuum limit, multimode commutators; the rescale and relax runs through
the CLI, whose runners compute what those checks measure.

Oracles: the closed-form dispersion w(k)^2 = gamma/m + 4 (gamma_c/m)
sin^2(ka/2), exact energy bookkeeping sum_j w_j |a_j|^2 = H (Parseval), and
the continuum law w^2 = k^2 + M^2 with leading lattice error k^4 a^2 / 12.
"""

import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from thermofock import chain, cli, errors
from thermofock.chain import (
    _leapfrog_stride,
    _stride_kernel,
    ChainParams,
    chain_energy,
    continuum_error,
    continuum_params_for,
    dispersion,
    integrate_chain,
    mode_amplitudes,
    mode_commutator_check,
    reconstruct_state,
    sample_thermal_state,
    spectral_dispersion,
)
from thermofock.errors import CapacityError, StabilityError


def _mode_energy(state, params):
    """sum_j w_j |a_j|^2 over the normal modes of the state (q, p)."""
    amps, omega = mode_amplitudes(*state, params)
    return float(np.sum(omega * np.abs(amps) ** 2))


def _plane_wave(params, j, amplitude):
    """The state whose only mode amplitude is a_j = amplitude."""
    amps = np.zeros(params.n_sites, dtype=complex)
    amps[j] = amplitude
    return reconstruct_state(amps, params)


# -- parameters and energy ------------------------------------------------------

def test_chain_params_validation(usage_error):
    usage_error(["relax", "--seed", "1", "--sites", "6"], "--sites")
    with pytest.raises(ValueError):
        ChainParams(n_sites=8, gamma=0.0, gamma_couple=0.0)
    usage_error(["rescale", "--seed", "1", "--mass", "-1"], "--mass")
    usage_error(["rescale", "--seed", "1", "--spacing", "0"], "--spacing")
    params = ChainParams(n_sites=8, gamma=1.0, gamma_couple=2.0, spacing=0.5)
    assert params.zone_boundary == pytest.approx(2.0 * math.pi)
    assert params.omega_max == pytest.approx(3.0)


def test_energy_of_simple_states():
    params = ChainParams(n_sites=8, mass=2.0, gamma=3.0, gamma_couple=5.0)
    zero = (np.zeros(8), np.zeros(8))
    assert chain_energy(*zero, params) == 0.0
    # uniform displacement stretches nothing: E = N gamma u^2 / 2
    uniform = (np.full(8, 0.7), np.zeros(8))
    assert chain_energy(*uniform, params) == pytest.approx(8 * 3.0 * 0.49 / 2)
    # a single momentum kick: E = p^2 / 2m
    kick = (np.zeros(8), np.eye(8)[3] * 1.5)
    assert chain_energy(*kick, params) == pytest.approx(1.5 ** 2 / (2 * 2.0))


def test_dispersion_closed_form():
    params = ChainParams(n_sites=16, mass=2.0, gamma=1.0, gamma_couple=3.0)
    assert dispersion(0.0, params) == pytest.approx(math.sqrt(0.5))
    edge = params.zone_boundary
    assert dispersion(edge, params) == pytest.approx(math.sqrt((1 + 12) / 2))
    # even in k
    k = 0.8
    assert dispersion(k, params) == dispersion(-k, params)
    # monotone from zone center to edge when the coupling is attractive
    ks = np.linspace(0.0, edge, 50)
    w = dispersion(ks, params)
    assert np.all(np.diff(w) > 0)


def test_dispersion_rejects_out_of_zone_wavenumbers():
    params = ChainParams(n_sites=8, spacing=1.0)
    with pytest.raises(ValueError):
        dispersion(1.5 * math.pi, params)


def test_two_site_antisymmetric_mode():
    params = ChainParams(n_sites=2, mass=1.5, gamma=0.5, gamma_couple=2.0)
    # k = pi/a: the out-of-phase mode, w = sqrt((gamma + 4 gamma_c)/m)
    w_edge = dispersion(params.zone_boundary, params)
    assert w_edge == pytest.approx(math.sqrt(8.5 / 1.5))
    state = (np.array([1.0, -1.0]), np.zeros(2))
    energy = chain_energy(*state, params)
    assert _mode_energy(state, params) == pytest.approx(energy, rel=1e-12)


def test_flat_band_when_coupling_vanishes():
    params = ChainParams(n_sites=8, gamma=4.0, gamma_couple=0.0)
    w = dispersion(params.wavenumbers, params)
    np.testing.assert_allclose(w, 2.0, rtol=1e-15)


# -- mode map ----------------------------------------------------------------------

def test_parseval_on_random_states():
    # the mode map must conserve energy for every state, not just nice ones
    params = ChainParams(n_sites=8, mass=1.3, gamma=0.7, gamma_couple=2.1)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        state = (rng.standard_normal(8), rng.standard_normal(8))
        e_site = chain_energy(*state, params)
        e_mode = _mode_energy(state, params)
        assert abs(e_mode - e_site) <= 1e-10 * e_site


def test_mode_round_trip_reconstructs_the_state():
    params = ChainParams(n_sites=16, mass=0.8, gamma=1.2, gamma_couple=0.9)
    rng = np.random.default_rng(7)
    for _ in range(50):
        q, p = rng.standard_normal(16), rng.standard_normal(16)
        amps, _ = mode_amplitudes(q, p, params)
        back_q, back_p = reconstruct_state(amps, params)
        np.testing.assert_allclose(back_q, q, atol=1e-12)
        np.testing.assert_allclose(back_p, p, atol=1e-12)


def test_any_amplitude_vector_is_a_real_state():
    # the mirror-conjugate construction makes reconstruct real for ANY a
    params = ChainParams(n_sites=8)
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    q, p = reconstruct_state(amps, params)
    assert q.dtype == float and p.dtype == float
    again, _ = mode_amplitudes(q, p, params)
    np.testing.assert_allclose(again, amps, atol=1e-12)


def _full_fft_amplitudes(q, p, params):
    """Reference: a = (W fft(q) + i fft(p) / W) / sqrt(2N) over the last
    axis, W = sqrt(m w), every wavenumber transformed."""
    weight = np.sqrt(params.mass * dispersion(params.wavenumbers, params))
    return ((weight * np.fft.fft(q, axis=-1) + 1j * np.fft.fft(p, axis=-1) / weight)
            / math.sqrt(2.0 * params.n_sites))


@pytest.mark.parametrize("n_sites", [2, 3, 8, 17, 256])
def test_half_spectrum_amplitudes_match_the_full_fft_formula(n_sites):
    # even and odd N (a Nyquist mode or none), 1-D states and (S, N)
    # snapshots whose row count crosses a row-block boundary
    params = ChainParams(n_sites=n_sites, mass=1.3, gamma=0.7, gamma_couple=2.1)
    rng = np.random.default_rng(n_sites)
    block_rows = errors.block_width(4 * n_sites)
    for shape in [(n_sites,), (block_rows + 3, n_sites)]:
        q, p = rng.standard_normal((2,) + shape)
        amps, omega = mode_amplitudes(q, p, params)
        want = _full_fft_amplitudes(q, p, params)
        assert amps.shape == shape and amps.dtype == complex
        assert np.array_equal(omega, dispersion(params.wavenumbers, params))
        assert np.max(np.abs(amps - want)) <= 1e-15 * np.max(np.abs(want))
    back_q, back_p = reconstruct_state(
        mode_amplitudes(q[-1], p[-1], params)[0], params)
    np.testing.assert_allclose(back_q, q[-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(back_p, p[-1], rtol=0, atol=1e-12)


def test_single_mode_excitation_is_a_plane_wave():
    params = ChainParams(n_sites=16)
    q, _ = _plane_wave(params, 3, 1.0)
    # |q_n| has a uniform envelope: a traveling wave, not a standing one
    fftq = np.abs(np.fft.fft(q))
    support = np.sort(np.argsort(fftq)[-2:])
    np.testing.assert_array_equal(support, [3, 13])   # +k and its mirror


def test_thermal_state_equipartition():
    params = ChainParams(n_sites=64)
    beta = 2.0
    state = sample_thermal_state(params, beta, seed=42)
    amps, omega = mode_amplitudes(*state, params)
    # each mode carries E_j = w_j |a_j|^2 ~ Exp(1/beta): sum ~ N/beta
    scaled = beta * omega * np.abs(amps) ** 2
    assert abs(float(np.sum(scaled)) - 64) <= 4 * math.sqrt(64)


def test_thermal_sampling_guards(usage_error):
    usage_error(["relax", "--seed", "1", "--beta", "-1"], "--beta")
    usage_error(["chain-dispersion"], "--seed")
    # the CLI's chains are all bound: --gamma refuses 0
    usage_error(["rescale", "--seed", "1", "--gamma", "0"], "--gamma")
    free = ChainParams(n_sites=8, gamma=0.0, gamma_couple=1.0)
    with pytest.raises(ValueError):
        sample_thermal_state(free, 1.0, seed=1)    # unbound zero mode
    # displacement variances (gamma + 4 gamma_c)/gamma apart: within 1/eps^2
    # at gamma 2.1e-31, past it at 1.9e-31, where the narrowest modes would
    # round away under the zero mode in every site
    sample_thermal_state(ChainParams(n_sites=8, gamma=2.1e-31), 1.0, seed=1)
    with pytest.raises(FloatingPointError, match="span more than 1/eps"):
        sample_thermal_state(ChainParams(n_sites=8, gamma=1.9e-31), 1.0,
                             seed=1)


@pytest.mark.parametrize("command", ["rescale", "relax", "chain-dispersion"])
def test_a_state_too_hot_to_be_finite_exits_three(command):
    # at a subnormal beta the mode variances 1/(beta w) overflow, and the
    # state is refused before numpy warns: a warning here is an error, which
    # would end the run as an internal one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcome = cli.evaluate(cli.build_parser().parse_args(
            [command, "--beta", "5e-324", "--seed", "1"]))
    assert outcome.code == cli.EXIT_NUMERICAL
    [check] = outcome.report.checks
    assert "state entries must be finite" in check.measured


# -- integration --------------------------------------------------------------------

def test_integrator_rejects_unstable_step():
    params = ChainParams(n_sites=8)
    state = (np.zeros(8), np.ones(8))
    with pytest.raises(StabilityError):
        integrate_chain(*state, params, duration=1.0, dt=2.0 / params.omega_max)


def test_integrator_conserves_energy_without_friction():
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, seed=3)
    e0 = chain_energy(*state, params)
    dt = 0.1 / params.omega_max
    traj = integrate_chain(*state, params, duration=50.0, dt=dt, stride=100)
    energies = [chain_energy(traj.q[i], traj.p[i], params) for i in range(traj.times.size)]
    ripple = (params.omega_max * dt) ** 2 / 2.0
    assert np.max(np.abs(np.array(energies) - e0)) / e0 <= ripple


def test_zero_state_stays_zero():
    params = ChainParams(n_sites=8)
    traj = integrate_chain(np.zeros(8), np.zeros(8), params,
                           duration=5.0, dt=0.1)
    assert float(np.max(np.abs(traj.q))) == 0.0
    assert float(np.max(np.abs(traj.p))) == 0.0


def test_snapshots_are_uniform_and_cover_the_duration():
    params = ChainParams(n_sites=8)
    state = (np.zeros(8), np.ones(8))
    traj = integrate_chain(*state, params, duration=1.0, dt=0.03, stride=7)
    np.testing.assert_allclose(np.diff(traj.times), traj.times[1] - traj.times[0],
                               rtol=1e-12)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0, rel=1e-12)


def _step_size(duration, dt, stride):
    """integrate_chain's step: the step count rounded up to whole strides."""
    n_steps = max(1, math.ceil(duration / dt - 1e-12))
    n_steps = stride * math.ceil(n_steps / stride)
    return n_steps, duration / n_steps


def _roll_leapfrog(state, params, duration, dt, friction=0.0, stride=1):
    """Reference: the textbook kick-drift-kick loop with np.roll stencils and
    two force evaluations per step, as integrate_chain once ran it."""

    def force(q):
        gc = params.gamma_couple
        return -gc * (2.0 * q - np.roll(q, 1) - np.roll(q, -1)) - params.gamma * q

    n_steps, h = _step_size(duration, dt, stride)
    decay = math.exp(-friction * h / 2.0)
    m = params.mass
    q, p = (np.array(x, dtype=float) for x in state)
    n_snap = n_steps // stride + 1
    qs = np.empty((n_snap, params.n_sites))
    ps = np.empty_like(qs)
    qs[0], ps[0] = q, p
    s = 1
    for step in range(1, n_steps + 1):
        p += (0.5 * h) * force(q)
        p *= decay
        q += (h / m) * p
        p *= decay
        p += (0.5 * h) * force(q)
        if step % stride == 0:
            qs[s], ps[s] = q, p
            s += 1
    times = h * stride * np.arange(n_snap)
    return times, qs, ps


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(n), rng.standard_normal(n))


def _assert_matches_roll_reference(traj, params, state, run):
    """Same times; every snapshot within 1e-12 relative of the reference, the
    stride kernel summing in another order than the stencil; and each
    snapshot's energy is chain_energy of that snapshot, bit for bit."""
    times, qs, ps = _roll_leapfrog(state, params, **run)
    assert np.array_equal(traj.times, times)
    got = np.concatenate((traj.q, traj.p), axis=1)
    want = np.concatenate((qs, ps), axis=1)
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))
    energies = [chain_energy(traj.q[i], traj.p[i], params)
                for i in range(traj.times.size)]
    assert traj.energies.tolist() == energies
    return times, qs, ps


@pytest.mark.parametrize("params, state, run", [
    # N = 2: left and right neighbour are the same site
    (ChainParams(n_sites=2, mass=2.0, gamma=0.7, gamma_couple=1.3),
     _random_state(2, 1), dict(duration=20.0, dt=0.05)),
    (ChainParams(n_sites=8, gamma=0.0), _random_state(8, 2),
     dict(duration=10.0, dt=0.1)),
    (ChainParams(n_sites=8, gamma_couple=0.0), _random_state(8, 3),
     dict(duration=10.0, dt=0.1)),
    (ChainParams(n_sites=16), sample_thermal_state(ChainParams(n_sites=16), 1.0, 5),
     dict(duration=30.0, dt=0.025, friction=0.05, stride=7)),
    (ChainParams(n_sites=64), sample_thermal_state(ChainParams(n_sites=64), 1.0, 11),
     dict(duration=40.0, dt=0.05, stride=3)),
], ids=["two-sites", "gamma-zero", "coupling-zero", "friction-stride", "thermal-64"])
def test_buffered_leapfrog_matches_roll_reference_bit_for_bit(params, state, run):
    traj = integrate_chain(*state, params, **run)
    _, qs, ps = _assert_matches_roll_reference(traj, params, state, run)
    # one stride of the buffered batch step takes every reference snapshot
    # to the next one, signed zeros included
    stride = run.get("stride", 1)
    _, h = _step_size(run["duration"], run["dt"], stride)
    decay = math.exp(-run.get("friction", 0.0) * h / 2.0)
    q, p = _leapfrog_stride(qs[:-1], ps[:-1], params, h, decay, stride)
    assert q.tobytes() == qs[1:].tobytes()
    assert p.tobytes() == ps[1:].tobytes()


def test_blow_up_to_nan_raises_stability_error():
    # alternating +-1e308 overflows: q^2 is already inf, so the initial energy
    # leaves no finite cap and the run stops before its first step; the
    # snapshot check itself is tested by
    # test_blow_up_to_inf_raises_stability_error_on_either_route
    params = ChainParams(n_sites=8)
    q = 1e308 * np.array([1.0, -1.0] * 4)
    state = (q, np.zeros(8))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StabilityError):
        integrate_chain(*state, params, duration=0.1, dt=0.1)


def test_infinite_initial_energy_raises_stability_error():
    # q^2 = 1e310 overflows, so e0 = inf and a 10x cap could never trip
    params = ChainParams(n_sites=8)
    state = (np.full(8, 1e155), np.zeros(8))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StabilityError):
        integrate_chain(*state, params, duration=0.1, dt=0.1)


def _roll_stride_map(params, h, stride, friction):
    """Rows: each of the 2N unit vectors after one stride of _roll_leapfrog."""
    n = params.n_sites
    rows = []
    for unit in np.eye(2 * n):
        _, qs, ps = _roll_leapfrog((unit[:n], unit[n:]), params,
                                   duration=stride * h, dt=h,
                                   friction=friction, stride=stride)
        rows.append(np.concatenate((qs[-1], ps[-1])))
    return np.array(rows)


def _kernel_map(kernel, n):
    """The 2N x 2N stride map whose rows the circulant kernel gives: entry
    [d, c, i] moves channel c at site n + i - w // 2 into channel d at n."""
    width = kernel.shape[-1]
    dense = np.zeros((2 * n, 2 * n))
    for site in range(n):
        sources = (site + np.arange(width) - width // 2) % n
        for c in range(2):
            for d in range(2):
                dense[c * n + sources, d * n + site] = kernel[d, c]
    return dense


def test_stride_map_route_is_the_unit_vector_map_bit_for_bit():
    # h = 1/32 and one stride, 40 h = 1.25, are exact, so every unit-vector
    # run of the reference takes the step the kernel was built with.  The
    # kernel wraps when 2 stride + 3 > N (two sites at stride 1, 16 sites at
    # stride 40) and is banded otherwise (256 sites at a09's stride 12)
    h = 1.0 / 32.0
    for params, stride, friction, width in (
            (ChainParams(n_sites=2, gamma=0.7, gamma_couple=1.3), 1, 0.0, 2),
            (ChainParams(n_sites=16), 40, 0.05, 16),
            (ChainParams(n_sites=256), 12, 0.05, 27)):
        decay = math.exp(-friction * h / 2.0)
        kernel = _stride_kernel(params, h, decay, stride)
        assert kernel.shape == (2, 2, width)
        # the unit-vector run from every site is the shifted site-0 response
        want = _roll_stride_map(params, h, stride, friction)
        assert _kernel_map(kernel, params.n_sites).tobytes() == want.tobytes()


def _full_ring_kernel(params, h, decay, stride):
    """The stride kernel read off deltas stepped on the whole N-site ring."""
    n = params.n_sites
    delta = np.zeros((2, n))
    delta[0, 0] = 1.0
    q, p = _leapfrog_stride(delta, delta[::-1], params, h, decay, stride)
    width = min(n, 2 * stride + 3)
    return np.take(np.stack((q, p)), (width // 2 - np.arange(width)) % n,
                   axis=-1)


def test_stride_kernel_on_a_short_ring_is_the_full_ring_kernel_bit_for_bit():
    # the ring is N sites up to 2 stride + 5 and shorter beyond; signed
    # zeros included, with and without friction, pinning or coupling
    h = 0.05
    for n_sites, stride in ((4, 1), (5, 1), (6, 1), (7, 1), (8, 1), (9, 2),
                            (16, 7), (17, 6), (18, 6), (19, 6), (64, 12),
                            (256, 12), (1024, 40), (4096, 1000)):
        for params in (ChainParams(n_sites=n_sites),
                       ChainParams(n_sites=n_sites, gamma=0.0),
                       ChainParams(n_sites=n_sites, gamma_couple=0.0)):
            for friction in (0.0, 0.05):
                decay = math.exp(-friction * h / 2.0)
                got = _stride_kernel(params, h, decay, stride)
                want = _full_ring_kernel(params, h, decay, stride)
                assert got.tobytes() == want.tobytes(), (n_sites, stride,
                                                         params, friction)


@pytest.mark.parametrize("params, friction", [
    (ChainParams(n_sites=16), 0.05),
    # no pinning and no friction: the k = 0 mode drifts freely
    (ChainParams(n_sites=16, gamma=0.0), 0.0),
], ids=["friction", "gamma-zero-drift"])
def test_stride_map_route_matches_roll_reference(params, friction):
    state = _random_state(16, 7)
    run = dict(duration=100.0, dt=0.025, friction=friction, stride=40)
    traj = integrate_chain(*state, params, **run)
    times, _, _ = _assert_matches_roll_reference(traj, params, state, run)
    if params.gamma == 0.0:
        # the centre of mass really moves: sum q grows by sum p per unit time
        q, p = state
        drift = float(np.sum(p)) * (times[-1] - times[0])
        assert abs(np.sum(traj.q[-1]) - np.sum(q) - drift) <= 1e-9 * abs(drift)


@pytest.mark.parametrize("block_floats", [2 ** 18, 64, 16],
                         ids=["whole", "site-blocks", "site-past-cap"])
def test_windowed_product_matches_roll_reference_in_blocks(monkeypatch,
                                                           block_floats):
    # a09's 256 sites at stride 12, a kernel 27 sites wide: one window matrix,
    # one site per block, and one site per block whose 54-float column
    # passes the budget
    monkeypatch.setattr(errors, "BLOCK_FLOATS", block_floats)
    params = ChainParams(n_sites=256)
    state = sample_thermal_state(params, 1.0, 3)
    run = dict(duration=30.0, dt=0.05, friction=0.01, stride=12)
    traj = integrate_chain(*state, params, **run)
    _assert_matches_roll_reference(traj, params, state, run)


def test_window_buffer_is_capped_whatever_the_kernel_width(traced_peak):
    # 4096 sites at stride 1000: the kernel is 2003 sites wide, and one
    # window matrix would hold 4096 x 4006 floats, 125 MiB
    params = ChainParams(n_sites=4096)
    state = sample_thermal_state(params, 1.0, 1)
    traj, peak = traced_peak(lambda: integrate_chain(
        *state, params, duration=100.0, dt=0.05, stride=1000))
    assert traj.times.size == 3
    # the window buffer of the block budget, 16 sites here, and a fixed
    # part of 16 arrays of 2N floats, 1 MiB: the three snapshots, the
    # stride kernel's delta batch and the stencil temporaries that step it,
    # and the wrapped state with its gather indices (0.79 MiB traced).  A
    # 2 MiB window buffer traced 2.69 MiB in all
    assert peak <= 8 * errors.BLOCK_FLOATS + 16 * 8 * 2 * params.n_sites


@pytest.mark.parametrize("stride", [1, 16], ids=["stencil", "stride-map"])
def test_blow_up_to_inf_raises_stability_error_on_either_route(stride):
    # the zone-boundary mode at dt just below 2/w_max: energy finite at the
    # start (1.6e307, cap 1.6e308) but carried by p alone, so at the extremes
    # of q it is ~5000x larger and overflows to inf; the kernel is banded at
    # stride 1 and wraps at stride 16
    params = ChainParams(n_sites=8)
    dt = (1.0 - 1e-4) * 2.0 / params.omega_max
    state = (np.zeros(8), 2e153 * np.array([1.0, -1.0] * 4))
    assert math.isfinite(10.0 * chain_energy(*state, params))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StabilityError, match="grew to (inf|nan)"):
        integrate_chain(*state, params, duration=640 * dt, dt=dt, stride=stride)


def test_blow_up_raises_at_the_end_of_its_energy_block(monkeypatch):
    # blocks of 5 snapshots, the first ending at snapshot 5: the energy of the
    # zone-boundary mode passes the cap mid-block, and the block's first
    # snapshot over the cap is the one reported
    monkeypatch.setattr(errors, "BLOCK_FLOATS", 5 * 8)
    params = ChainParams(n_sites=8)
    run = dict(duration=640 * 0.99 * 2.0 / params.omega_max,
               dt=0.99 * 2.0 / params.omega_max)
    state = (np.zeros(8), 1e-3 * np.array([1.0, -1.0] * 4))
    _, qs, ps = _roll_leapfrog(state, params, **run)
    energies = np.array([chain_energy(q, p, params)
                         for q, p in zip(qs, ps)])
    first = int(np.flatnonzero(energies > 10.0 * energies[0])[0])
    assert first % 5 != 0
    with pytest.raises(StabilityError, match=f"grew to {energies[first]:.3g} "):
        integrate_chain(*state, params, **run)


def test_spectral_dispersion_transient_memory_is_bounded(traced_peak):
    # the half spectrum of q, and then in place its time spectrum, overwrite
    # the trajectory's S x (N + 2) float buffer, so only the row blocks of
    # the rfft and the blocks of |spectrum| come on top of it: 0.62x of that
    # buffer here, 0.32x of the (q, p) buffer of 2 S N floats that the mode
    # amplitudes were taken in (bounded at 0.35x of it).  The copying route,
    # a second complex buffer beside the (q, p) snapshots, read 1.32x of them
    params = ChainParams(n_sites=64)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj = integrate_chain(*state, params, duration=200.0, dt=0.1,
                           momenta=False)
    assert traj.q.shape == (2001, 64)
    assert traj.snapshots.nbytes == 8 * 2001 * 66
    _, peak = traced_peak(lambda: spectral_dispersion(traj, params))
    assert peak <= 0.65 * traj.snapshots.nbytes


def test_spectral_dispersion_transient_memory_at_a09_length(traced_peak):
    # a09's 2096 snapshots on 256 sites: the blocks shrink against the
    # buffer, 0.17x of its S x (N + 2) floats, 0.09x of the (q, p) buffer
    # that the mode amplitudes were taken in (bounded at 0.1x of it; 0.19x
    # with 256-row blocks of the mode transform, 1.19x on the copying route)
    params = ChainParams(n_sites=256)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj = integrate_chain(*state, params, duration=400.0 * math.pi, dt=0.05,
                           stride=12, momenta=False)
    assert traj.q.shape == (2096, 256)
    _, peak = traced_peak(lambda: spectral_dispersion(traj, params))
    assert peak <= 0.18 * traj.snapshots.nbytes


def test_integrate_chain_transient_memory_is_bounded(traced_peak):
    # the snapshot buffer becomes the trajectory's without a copy; on top
    # of it come the window buffer and one energy block's temporaries
    params = ChainParams(n_sites=1024)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj, peak = traced_peak(lambda: integrate_chain(
        *state, params, duration=400.0 * math.pi, dt=0.05, stride=12))
    assert traj.q.shape == (2096, 1024)
    assert peak <= 1.1 * (traj.q.nbytes + traj.p.nbytes)


def test_stability_check_holds_one_energy_block(traced_peak):
    # a09's run at 1024 sites: past the snapshot buffer it holds the window
    # buffer and one 64-row energy block, its three squares formed in turn
    # in that block and its stretch taken as one flat difference, 0.99 MiB;
    # 0.1 MiB to spare covers the rows of N sites and S snapshots.  A
    # row-by-row stretch read 1.17 MiB, its strided difference run through
    # numpy's iteration buffers; a fresh array a square 1.49 MiB, two blocks
    n, stride = 1024, _A09_RUN["stride"]
    params = ChainParams(n_sites=n)
    state = sample_thermal_state(params, 1.0, 42)
    traj, peak = traced_peak(
        lambda: integrate_chain(*state, params, **_A09_RUN),
        lambda: integrate_chain(*state, params, duration=10.0, dt=0.05))
    width = min(n, 2 * stride + 3)
    window_bytes = 8 * 2 * width * min(n, errors.block_width(2 * width))
    check_bytes = 8 * n * errors.block_width(n)
    excess = peak - (traj.q.nbytes + traj.p.nbytes)
    assert excess <= check_bytes + window_bytes + 0.1 * 2 ** 20, excess


def test_displacement_only_stability_check_holds_one_momentum_block(
        traced_peak):
    # the same run recording q alone: past its S x (N + 2) buffer it holds
    # what the run above holds, and the rolling block of the energy block's
    # momenta, 1.49 MiB.  Its q is C-ordered, so the stretch is still one
    # flat difference: q as the first N columns of each row read 2.11 MiB,
    # each energy block's q copied and its squares run through numpy's
    # iteration buffers
    n, stride = 1024, _A09_RUN["stride"]
    params = ChainParams(n_sites=n)
    state = sample_thermal_state(params, 1.0, 42)
    traj, peak = traced_peak(
        lambda: integrate_chain(*state, params, **_A09_RUN, momenta=False),
        lambda: integrate_chain(*state, params, duration=10.0, dt=0.05,
                                momenta=False))
    width = min(n, 2 * stride + 3)
    window_bytes = 8 * 2 * width * min(n, errors.block_width(2 * width))
    check_bytes = 8 * n * errors.block_width(n)
    excess = peak - traj.snapshots.nbytes
    assert excess <= 2 * check_bytes + window_bytes + 0.1 * 2 ** 20, excess


def test_chain_dispersion_path_holds_one_snapshot_buffer(traced_peak):
    # integrate_chain then spectral_dispersion, as `chain-dispersion --sites
    # 1024` runs them: one buffer of S x (N + 2) floats serves the whole
    # path, 1.09x of it at the peak, 0.55x of the (q, p) buffer that the
    # mode amplitudes were taken in (1.03x of that; 1.19x with 256-row
    # blocks of the mode transform, 2.19x on the copying route)
    params = ChainParams(n_sites=1024)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    sizes = []

    def path():
        traj = integrate_chain(*state, params, duration=400.0 * math.pi,
                               dt=0.05, stride=12, momenta=False)
        sizes.append((traj.q.shape, traj.snapshots.nbytes))
        return spectral_dispersion(traj, params)

    (measured, _), peak = traced_peak(path)
    (shape, snapshot_bytes), = sizes
    assert shape == (2096, 1024)
    assert not np.any(np.isnan(measured))
    assert peak <= 1.1 * snapshot_bytes


def test_relax_amplitude_read_holds_no_second_buffer(monkeypatch):
    # what `relax` holds beyond its trajectory: the amplitudes overwrite the
    # snapshots and |a| is taken a mode at a time, so the row blocks of the
    # mode transform set the peak, 0.16x at 256 sites (0.39x with 256-row
    # blocks, 1.50x when a copied amplitude array and its |a| sat beside the
    # snapshots)
    sizes = []

    def integrate_then_trace(*args, **kwargs):
        traj = integrate_chain(*args, **kwargs)
        sizes.append(traj.q.nbytes + traj.p.nbytes)
        tracemalloc.start()
        return traj

    monkeypatch.setattr(chain, "integrate_chain", integrate_then_trace)
    args = cli.build_parser().parse_args(
        ["relax", "--sites", "256", "--seed", "5"])
    try:
        outcome = cli.evaluate(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome.code == cli.EXIT_PASS
    assert peak <= 0.2 * sizes[0]


def test_trajectory_holds_the_integrated_buffers():
    params = ChainParams(n_sites=8)
    traj = integrate_chain(*_random_state(8, 4), params, duration=5.0, dt=0.1)
    assert not traj.times.flags.writeable
    assert not traj.energies.flags.writeable
    # q and p are the real and imaginary parts of one complex buffer: they
    # interleave, so they share its extent but no byte
    assert traj.q.base is traj.p.base is traj.snapshots
    assert traj.snapshots.dtype == complex
    assert traj.snapshots.shape == traj.q.shape == (traj.times.size, 8)
    assert np.may_share_memory(traj.q, traj.p)
    assert traj.q.nbytes + traj.p.nbytes == traj.snapshots.nbytes
    # displacements alone, at even and odd N: q is the first S N floats of
    # one float buffer with room for each row's N//2 + 1 complex half
    # spectrum, and p holds no column
    for n in (8, 7):
        traj = integrate_chain(*_random_state(n, 4), ChainParams(n_sites=n),
                               duration=5.0, dt=0.1, momenta=False)
        rows = traj.times.size
        assert traj.snapshots.dtype == float
        assert traj.snapshots.shape == (rows, 2 * (n // 2 + 1))
        assert traj.q.shape == (rows, n) and traj.q.flags.c_contiguous
        assert traj.q.base is traj.p.base is traj.snapshots
        assert np.shares_memory(traj.q, traj.snapshots[0])
        assert traj.p.shape == (rows, 0)
        assert not traj.energies.flags.writeable


@pytest.mark.parametrize("block_floats", [2 ** 16, 5 * 16],
                         ids=["a09-blocks", "blocks-of-5"])
def test_displacement_only_run_keeps_every_float(monkeypatch, block_floats):
    # q and every energy are those of the run that records momenta, bit for
    # bit, on the stencil and the stride map, whole energy blocks or blocks
    # of 5 rows whose last is short; a blow-up raises the same error
    monkeypatch.setattr(errors, "BLOCK_FLOATS", block_floats)
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, 8)
    for run in (dict(duration=10.0, dt=0.1),
                dict(duration=30.0, dt=0.05, friction=0.02, stride=12)):
        want = integrate_chain(*state, params, **run)
        traj = integrate_chain(*state, params, **run, momenta=False)
        assert traj.q.tobytes() == want.q.tobytes()
        assert traj.energies.tobytes() == want.energies.tobytes()
        assert traj.times.tobytes() == want.times.tobytes()
    dt = 0.99 * 2.0 / params.omega_max
    blow_up = (np.zeros(16), 1e-3 * np.array([1.0, -1.0] * 8))
    with pytest.raises(StabilityError) as want:
        integrate_chain(*blow_up, params, duration=640 * dt, dt=dt)
    with pytest.raises(StabilityError, match=re.escape(str(want.value))):
        integrate_chain(*blow_up, params, duration=640 * dt, dt=dt,
                        momenta=False)


def test_snapshot_count_is_the_integrated_count():
    params = ChainParams(n_sites=8)
    for run in (dict(duration=1.0, dt=0.03, stride=7),
                dict(duration=400.0 * math.pi, dt=0.05, stride=12),
                dict(duration=0.05, dt=0.05, stride=1),
                dict(duration=1e-9, dt=0.05, stride=3)):
        traj = integrate_chain(np.zeros(8), np.ones(8), params, **run)
        assert chain.snapshot_count(params, **run) == traj.times.size
    assert chain.snapshot_count(params, **_A09_RUN) == 2096
    # the run's own refusals, in integrate_chain's order
    with pytest.raises(StabilityError):
        chain.snapshot_count(params, 1.0, 2.0 / params.omega_max)
    for duration in (0.0, math.inf, math.nan):
        with pytest.raises(FloatingPointError, match="positive and finite"):
            chain.snapshot_count(params, duration, 0.1)


def test_amplitudes_written_in_place_match_the_copying_route(monkeypatch):
    # several near-equal row blocks: the amplitudes written over the
    # snapshots are the very values mode_amplitudes gives for copies of them
    for n_sites in (15, 16):
        # blocks of at most 7 rows of 4N floats
        monkeypatch.setattr(errors, "BLOCK_FLOATS", 7 * 4 * n_sites)
        params = ChainParams(n_sites=n_sites)
        state = sample_thermal_state(params, beta=1.0, seed=n_sites)
        traj = integrate_chain(*state, params, duration=30.0, dt=0.1, stride=2)
        assert traj.times.size % 7
        want, want_omega = mode_amplitudes(traj.q.copy(), traj.p.copy(), params)
        amps, omega = mode_amplitudes(traj.q, traj.p, params,
                                      out=traj.snapshots)
        assert amps is traj.snapshots
        assert np.array_equal(amps, want) and np.array_equal(omega, want_omega)


def test_amplitudes_in_place_check_the_sites_before_writing():
    params = ChainParams(n_sites=8)
    state = sample_thermal_state(params, beta=1.0, seed=2)
    traj = integrate_chain(*state, params, duration=5.0, dt=0.1)
    before = traj.snapshots.copy()
    with pytest.raises(ValueError, match="params expect 16"):
        mode_amplitudes(traj.q, traj.p, ChainParams(n_sites=16),
                        out=traj.snapshots)
    assert np.array_equal(traj.snapshots, before)


def test_single_mode_oscillates_at_its_dispersion_frequency():
    params = ChainParams(n_sites=16)
    q, p = _plane_wave(params, 2, 0.9)
    w2 = dispersion(params.wavenumbers[2], params)
    period = 2.0 * math.pi / w2
    traj = integrate_chain(q, p, params, duration=period, dt=period / 4096)
    np.testing.assert_allclose(traj.q[-1], q, atol=5e-5)
    np.testing.assert_allclose(traj.p[-1], p, atol=5e-5)


# -- spectral dispersion ---------------------------------------------------------------

def test_spectral_peak_of_a_single_mode():
    params = ChainParams(n_sites=16)
    omega = dispersion(params.wavenumbers, params)
    state = _plane_wave(params, 5, 1.0)
    run = dict(duration=60.0 * math.pi, dt=0.05, stride=8)
    traj = integrate_chain(*state, params, **run, momenta=False)
    # the reference spectrum is taken before spectral_dispersion writes
    # over the snapshots
    column = np.abs(np.fft.fft(np.fft.rfft(traj.q, axis=-1)[:, 5]))
    measured, resolution = spectral_dispersion(traj, params)
    # every mode but 5 measures NaN as unexcited, not a faked frequency
    np.testing.assert_array_equal(np.flatnonzero(~np.isnan(measured)), [5])
    assert abs(measured[5] - omega[5]) <= resolution
    # mode 11 = -5 holds only leapfrog leakage of mode 5, of relative size
    # (w h)^2 / 16 (the amplitudes of the run that records momenta).  It is
    # read on the positive half of column 5, below the sidelobes of mode
    # 5's peak at -w, ten times larger: it has no peak of its own there
    recorded = integrate_chain(*state, params, **run)
    amps, _ = mode_amplitudes(recorded.q, recorded.p, params)
    mag = np.abs(np.fft.fft(amps, axis=0))
    h = traj.times[1] / 8
    leakage = np.max(mag[:, 11]) / np.max(mag[:, 5])
    assert leakage == pytest.approx((omega[5] * h) ** 2 / 16.0, rel=0.01)
    split = traj.times.size - traj.times.size // 2
    assert np.max(column[:split]) >= 10 * leakage * np.max(column[split:])


def test_equal_peaks_at_plus_and_minus_omega_read_as_two_modes():
    # a 16-site standing wave, a_k and a_-k of equal size at any phase: the
    # time spectrum of rfft(q)'s column k has equal peaks at -w and +w, and
    # which is larger is left to rounding.  Mode k is read on the negative
    # half and mode -k on the positive half, so both measure +w
    params = ChainParams(n_sites=16)
    omega = dispersion(params.wavenumbers, params)
    for k in range(1, 8):
        for phase in (0.0, 0.3, math.pi / 2):
            amps = np.zeros(16, dtype=complex)
            amps[k], amps[-k] = 1.0, np.exp(1j * phase)
            state = reconstruct_state(amps, params)
            traj = integrate_chain(*state, params, duration=60.0 * math.pi,
                                   dt=0.05, stride=8, momenta=False)
            column = np.abs(np.fft.fft(np.fft.rfft(traj.q, axis=-1)[:, k]))
            peak = int(np.argmax(column))
            mirror = -peak % traj.times.size
            assert abs(column[peak] - column[mirror]) <= 1e-12 * column[peak]
            measured, resolution = spectral_dispersion(traj, params)
            assert np.flatnonzero(~np.isnan(measured)).tolist() == [k, 16 - k]
            assert abs(measured[k] - omega[k]) <= resolution
            assert abs(measured[-k] - omega[k]) <= resolution


def test_spectral_dispersion_refuses_a_trajectory_with_momenta():
    params = ChainParams(n_sites=8)
    traj = integrate_chain(*_random_state(8, 1), params, duration=5.0, dt=0.1)
    before = traj.snapshots.copy()
    with pytest.raises(ValueError, match="momenta=False"):
        spectral_dispersion(traj, params)
    assert np.array_equal(traj.snapshots, before)


def _full_array_spectral_dispersion(traj, params):
    """Reference: the peak finder over one full |spectrum| array of the
    full FFT of q, every wavenumber transformed, one argmax per mode: mode
    j on the negative-frequency half of its own column, Q_j ~ e^{-i w_j t}
    there."""
    n_snap = traj.times.size
    dt_snap = float(traj.times[1] - traj.times[0])
    mag = np.abs(np.fft.fft(np.fft.fft(traj.q, axis=-1), axis=0))
    negative = n_snap - n_snap // 2
    measured = np.full(params.n_sites, np.nan)
    scale = float(np.max(mag[negative:]))
    for j in range(params.n_sites):
        col = mag[:, j]
        i_peak = negative + int(np.argmax(col[negative:]))
        peak = col[i_peak]
        if peak <= 1e-12 * max(scale, 1.0):
            continue
        lm = math.log(max(col[(i_peak - 1) % n_snap], 1e-300))
        l0 = math.log(peak)
        lp = math.log(max(col[(i_peak + 1) % n_snap], 1e-300))
        denom = lm - 2.0 * l0 + lp
        if denom >= 0.0:
            continue
        shift = min(0.5, max(-0.5, 0.5 * (lm - lp) / denom))
        signed_bin = i_peak if i_peak < n_snap - n_snap // 2 else i_peak - n_snap
        measured[j] = -2.0 * math.pi * (signed_bin + shift) / (n_snap * dt_snap)
    return measured


@pytest.mark.parametrize("params, state, run", [
    (ChainParams(n_sites=32), sample_thermal_state(ChainParams(n_sites=32), 1.0, 42),
     dict(duration=80.0 * math.pi, dt=0.05, stride=12)),
    (ChainParams(n_sites=16), _plane_wave(ChainParams(n_sites=16), 5, 1.0),
     dict(duration=60.0 * math.pi, dt=0.05, stride=8)),
], ids=["thermal-32", "plane-wave-16"])
def test_blocked_spectrum_matches_the_full_array_reference(monkeypatch, params,
                                                           state, run):
    want = _full_array_spectral_dispersion(
        integrate_chain(*state, params, **run), params)
    # one block of all columns, and near-equal blocks of at most 3 columns
    # and of rfft rows; each spectrum is taken in a fresh trajectory's
    # snapshot buffer
    for columns in (None, 3):
        traj = integrate_chain(*state, params, **run, momenta=False)
        if columns:
            monkeypatch.setattr(errors, "BLOCK_FLOATS",
                                columns * traj.times.size)
        measured, _ = spectral_dispersion(traj, params)
        assert np.array_equal(np.isnan(measured), np.isnan(want))
        good = ~np.isnan(want)
        assert np.all(np.abs(measured[good] - want[good])
                      <= 1e-12 * np.abs(want[good]))


def _loop_spectral_dispersion(traj, params):
    """Reference: each mode's peak found and refined by its own scalar loop
    pass, with libm's log, from the |spectrum| of the half-spectrum rfft of
    the trajectory's q taken whole: mode j <= N/2 on the negative half of
    column j, mode -j on the positive half of column j with the sign
    flipped.  Reads traj.q, so it runs before spectral_dispersion takes the
    snapshots over."""
    n, n_snap = params.n_sites, traj.times.size
    dt_snap = float(traj.times[1] - traj.times[0])
    spectrum = np.fft.rfft(traj.q, axis=-1)
    mag = np.abs(np.fft.fft(spectrum, axis=0, out=spectrum)).T
    del spectrum
    split = n_snap - n_snap // 2
    i_peaks, sides = [], []
    for j in range(n):
        if j <= n // 2:
            column, sign, first, last = j, -1.0, split, n_snap
        else:
            column, sign, first, last = n - j, 1.0, 0, split
        i_peaks.append(first + int(np.argmax(mag[column, first:last])))
        sides.append((column, sign))
    below = [mag[c, (i - 1) % n_snap] for i, (c, _) in zip(i_peaks, sides)]
    peaks = [mag[c, i] for i, (c, _) in zip(i_peaks, sides)]
    above = [mag[c, (i + 1) % n_snap] for i, (c, _) in zip(i_peaks, sides)]
    measured = np.full(n, np.nan)
    scale = float(max(peaks))
    for j, (i_peak, (_, sign), low, peak, high) in enumerate(zip(
            i_peaks, sides, below, peaks, above)):
        if peak <= 1e-12 * scale:
            continue
        lm = math.log(max(low, 1e-300))
        l0 = math.log(peak)
        lp = math.log(max(high, 1e-300))
        denom = lm - 2.0 * l0 + lp
        if denom >= 0.0:
            continue
        shift = 0.5 * (lm - lp) / denom
        shift = min(0.5, max(-0.5, shift))
        signed_bin = i_peak if i_peak < n_snap - n_snap // 2 else i_peak - n_snap
        nu = (signed_bin + shift) / (n_snap * dt_snap)
        measured[j] = sign * 2.0 * math.pi * nu
    return measured


# a09's run, 200 periods at dt 0.05 and stride 12: 2096 snapshots
_A09_RUN = dict(duration=400.0 * math.pi, dt=0.05, stride=12)


@pytest.mark.parametrize("params, state", [
    *[(ChainParams(n_sites=n), sample_thermal_state(ChainParams(n_sites=n),
                                                    1.0, 42))
      for n in (16, 64, 256, 1024)],
    # a chain whose peak logs np.log rounds otherwise than libm's (with
    # numpy's AVX-512 log), moving one peak by 2e-16; 14 unexcited modes;
    # a state with no peak at all
    (ChainParams(n_sites=256), sample_thermal_state(ChainParams(n_sites=256),
                                                    1.0, 35)),
    (ChainParams(n_sites=16), _plane_wave(ChainParams(n_sites=16), 5, 1.0)),
    (ChainParams(n_sites=16), (np.zeros(16), np.zeros(16))),
], ids=["thermal-16", "thermal-64", "thermal-256", "thermal-1024",
        "thermal-256-seed-35", "plane-wave-16", "zero-16"])
def test_peak_refinement_is_the_per_mode_loop_bit_for_bit(params, state):
    traj = integrate_chain(*state, params, **_A09_RUN, momenta=False)
    want = _loop_spectral_dispersion(traj, params)
    measured, _ = spectral_dispersion(traj, params)
    assert measured.tobytes() == want.tobytes()


def test_spectral_dispersion_full_thermal_band():
    params = ChainParams(n_sites=32)
    state = sample_thermal_state(params, 1.0, seed=42)
    t_max = 40.0 * 2.0 * math.pi / dispersion(0.0, params)
    traj = integrate_chain(*state, params, duration=t_max, dt=0.05, stride=12,
                           momenta=False)
    measured, resolution = spectral_dispersion(traj, params)
    omega = dispersion(params.wavenumbers, params)
    assert np.max(np.abs(measured - omega)) <= resolution     # NaN fails


def test_spectral_dispersion_flat_band():
    params = ChainParams(n_sites=8, gamma=4.0, gamma_couple=0.0)
    state = sample_thermal_state(params, 1.0, seed=5)
    traj = integrate_chain(*state, params, duration=100.0, dt=0.05, stride=4,
                           momenta=False)
    measured, resolution = spectral_dispersion(traj, params)
    good = ~np.isnan(measured)
    assert np.all(np.abs(measured[good] - 2.0) <= resolution)


# -- continuum limit ---------------------------------------------------------------------

def test_continuum_scaling_is_enforced():
    params = ChainParams(n_sites=8, mass=1.0, gamma=1.0, gamma_couple=1.0,
                         spacing=0.5)   # a^2 gamma_c / m = 0.25 != 1
    with pytest.raises(ValueError):
        continuum_error(0.1, params)


def test_continuum_error_vanishes_at_zone_center():
    params = continuum_params_for(spacing=0.5, field_mass=1.0)
    assert continuum_error(0.0, params) == pytest.approx(0.0, abs=1e-14)


def test_continuum_error_shrinks_fourfold_when_spacing_halves():
    k = math.pi / 4.0
    errors = {a: continuum_error(k, continuum_params_for(a, field_mass=1.0))
              for a in (1.0, 0.5, 0.25)}
    assert errors[1.0] / errors[0.5] == pytest.approx(4.0, abs=0.8)
    assert errors[0.5] / errors[0.25] == pytest.approx(4.0, abs=0.8)


def test_continuum_error_leading_term():
    # w^2 - (k^2 + M^2) = -k^4 a^2/12 + O(k^6 a^4)
    a, k = 0.1, 0.5
    params = continuum_params_for(a, field_mass=2.0)
    expected = k ** 4 * a ** 2 / 12.0
    assert continuum_error(k, params) == pytest.approx(expected, rel=1e-2)


def test_massless_dispersion_is_nearly_linear():
    a = 0.2
    params = continuum_params_for(a, field_mass=0.0)
    for k in (0.1, 0.5, 1.0):
        w = dispersion(k, params)
        assert abs(w - k) <= 1.01 * k ** 3 * a ** 2 / 24.0


# -- rescaled modes, through the CLI -------------------------------------------

def _passes_every_check(*argv):
    """Runs the CLI in-process and returns its tables, record arrays by CSV
    name, after asserting exit 0: every check passed."""
    outcome = cli.evaluate(cli.build_parser().parse_args(argv))
    assert outcome.code == cli.EXIT_PASS, argv
    return outcome.tables


def test_rescale_preserves_energy():
    # rescaled-single-frequency-energy: w0 sum |a~|^2 is the chain energy
    _passes_every_check("rescale", "--seed", "1")


def test_rescale_is_identity_on_a_flat_band():
    rows = _passes_every_check("rescale", "--seed", "1", "--sites", "8",
                               "--gamma-couple", "0")["rescale_modes.csv"]
    assert len(rows) == 8
    assert np.all(rows["lambda"] == 1.0)
    assert np.array_equal(rows["abs_amplitude_rescaled"], rows["abs_amplitude"])


def test_rescaled_equipartition_shares_one_hbar():
    # uniform-action-equipartition: beta w0 sum |a~|^2 within 4 sqrt(N) of
    # the mode count N = 64
    _passes_every_check("rescale", "--seed", "42")


# -- multimode commutators ---------------------------------------------------------------------

def test_cross_mode_commutators_vanish_identically():
    residual = mode_commutator_check(3, 5, hbar=1.0)
    off = residual[~np.eye(3, dtype=bool)]
    np.testing.assert_array_equal(off, 0.0)


def test_same_mode_commutators_exact_at_unit_hbar():
    residual = mode_commutator_check(3, 5, hbar=1.0)
    np.testing.assert_array_equal(np.diag(residual), 0.0)


def test_same_mode_commutators_generic_hbar():
    residual = mode_commutator_check(2, 4, hbar=0.3)
    assert np.max(np.abs(residual)) <= 1e-15


def _loop_mode_commutator_check(n_modes, n_levels, hbar):
    """Reference: the residuals one (j, l, occupation) at a time."""

    def ladder_product(r1, r2):
        if r1 == r2:
            return r1
        return math.sqrt(r1) * math.sqrt(r2)

    interior = n_levels - 1
    residual = np.zeros((n_modes, n_modes))
    occupations = np.indices((interior,) * n_modes).reshape(n_modes, -1).T
    for j in range(n_modes):
        for l in range(n_modes):
            worst = 0.0
            for occ in occupations:
                n_l = int(occ[l])
                n_j = int(occ[j])
                forward = ladder_product((n_l + 1) * hbar,
                                         (n_j + (1 if j == l else 0)) * hbar)
                backward = ladder_product(n_j * hbar,
                                          (n_l + (0 if j == l else 1)) * hbar)
                target = forward - backward - (hbar if j == l else 0.0)
                worst = max(worst, abs(target))
            residual[j, l] = worst
    return residual


@pytest.mark.parametrize("modes, levels, hbar", [
    (3, 5, 1.0), (4, 6, 0.3), (2, 3, 1e-300), (4, 6, 1e300)])
def test_commutator_residuals_are_the_occupation_loop_bit_for_bit(
        modes, levels, hbar):
    assert (mode_commutator_check(modes, levels, hbar).tobytes()
            == _loop_mode_commutator_check(modes, levels, hbar).tobytes())


def test_commutator_capacity_caps(usage_error):
    with pytest.raises(CapacityError):
        mode_commutator_check(5, 4, hbar=1.0)
    with pytest.raises(CapacityError):
        mode_commutator_check(2, 7, hbar=1.0)
    usage_error(["mode-commutator", "--modes", "0"], "--modes")
    usage_error(["mode-commutator", "--levels", "1"], "--levels")


# -- relaxation, through the CLI -----------------------------------------------

def test_relaxation_rates_and_energy_decay():
    # mode-envelope-rates, energy-exponential-decay and
    # energy-monotone-nonincreasing at the defaults: 16 sites, alpha = 0.01
    rows = _passes_every_check("relax", "--seed", "5")["relax_rates.csv"]
    rates = rows["rate"]
    assert np.all(rates[~np.isnan(rates)] > 0) and not np.all(np.isnan(rates))


def test_relaxation_control_run_conserves_energy():
    # control-energy-conserved: without friction no rate is fitted
    rows = _passes_every_check("relax", "--alpha", "0",
                               "--seed", "5")["relax_rates.csv"]
    assert np.all(np.isnan(rows["rate"]))
    assert np.all(rows["target_rate"] == 0.0)


def test_relaxation_rejects_negative_alpha(usage_error):
    usage_error(["relax", "--seed", "1", "--alpha", "-0.1"], "--alpha")
    for flag in ("--dt", "--t-max"):
        usage_error(["relax", "--seed", "1", flag, "0"], flag)
    usage_error(["relax", "--seed", "1", "--stride", "0"], "--stride")
