"""Oscillator-chain field model: mode decomposition, dispersion, integration,
continuum limit, multimode commutators; the rescale and relax runs through
the CLI, whose runners compute what those checks measure.

Oracles: the closed-form dispersion w(k)^2 = gamma/m + 4 (gamma_c/m)
sin^2(ka/2), exact energy bookkeeping sum_j w_j |a_j|^2 = H (Parseval), and
the continuum law w^2 = k^2 + M^2 with leading lattice error k^4 a^2 / 12.
"""

import math
import tracemalloc

import numpy as np
import pytest

from thermofock import chain, cli
from thermofock.chain import (
    _leapfrog_stride,
    _stride_kernel,
    ChainParams,
    ChainState,
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
    """sum_j w_j |a_j|^2 over the state's normal modes."""
    amps, omega = mode_amplitudes(state.q, state.p, params)
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
    zero = ChainState(np.zeros(8), np.zeros(8))
    assert chain_energy(zero, params) == 0.0
    # uniform displacement stretches nothing: E = N gamma u^2 / 2
    uniform = ChainState(np.full(8, 0.7), np.zeros(8))
    assert chain_energy(uniform, params) == pytest.approx(8 * 3.0 * 0.49 / 2)
    # a single momentum kick: E = p^2 / 2m
    kick = ChainState(np.zeros(8), np.eye(8)[3] * 1.5)
    assert chain_energy(kick, params) == pytest.approx(1.5 ** 2 / (2 * 2.0))


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
    state = ChainState(np.array([1.0, -1.0]), np.zeros(2))
    energy = chain_energy(state, params)
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
        state = ChainState(rng.standard_normal(8), rng.standard_normal(8))
        e_site = chain_energy(state, params)
        e_mode = _mode_energy(state, params)
        assert abs(e_mode - e_site) <= 1e-10 * e_site


def test_mode_round_trip_reconstructs_the_state():
    params = ChainParams(n_sites=16, mass=0.8, gamma=1.2, gamma_couple=0.9)
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = ChainState(rng.standard_normal(16), rng.standard_normal(16))
        amps, _ = mode_amplitudes(state.q, state.p, params)
        back = reconstruct_state(amps, params)
        np.testing.assert_allclose(back.q, state.q, atol=1e-12)
        np.testing.assert_allclose(back.p, state.p, atol=1e-12)


def test_any_amplitude_vector_is_a_real_state():
    # the mirror-conjugate construction makes reconstruct real for ANY a
    params = ChainParams(n_sites=8)
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = reconstruct_state(amps, params)
    assert state.q.dtype == float and state.p.dtype == float
    again, _ = mode_amplitudes(state.q, state.p, params)
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
    block_rows = chain._AMPLITUDE_FLOATS // n_sites
    for shape in [(n_sites,), (block_rows + 3, n_sites)]:
        q, p = rng.standard_normal((2,) + shape)
        amps, omega = mode_amplitudes(q, p, params)
        want = _full_fft_amplitudes(q, p, params)
        assert amps.shape == shape and amps.dtype == complex
        assert np.array_equal(omega, dispersion(params.wavenumbers, params))
        assert np.max(np.abs(amps - want)) <= 1e-15 * np.max(np.abs(want))
    back = reconstruct_state(mode_amplitudes(q[-1], p[-1], params)[0], params)
    np.testing.assert_allclose(back.q, q[-1], rtol=0, atol=1e-12)
    np.testing.assert_allclose(back.p, p[-1], rtol=0, atol=1e-12)


def test_single_mode_excitation_is_a_plane_wave():
    params = ChainParams(n_sites=16)
    state = _plane_wave(params, 3, 1.0)
    # |q_n| has a uniform envelope: a traveling wave, not a standing one
    fftq = np.abs(np.fft.fft(state.q))
    support = np.sort(np.argsort(fftq)[-2:])
    np.testing.assert_array_equal(support, [3, 13])   # +k and its mirror


def test_thermal_state_equipartition():
    params = ChainParams(n_sites=64)
    beta = 2.0
    state = sample_thermal_state(params, beta, seed=42)
    amps, omega = mode_amplitudes(state.q, state.p, params)
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


# -- integration --------------------------------------------------------------------

def test_integrator_rejects_unstable_step():
    params = ChainParams(n_sites=8)
    state = ChainState(np.zeros(8), np.ones(8))
    with pytest.raises(StabilityError):
        integrate_chain(state, params, duration=1.0, dt=2.0 / params.omega_max)


def test_integrator_conserves_energy_without_friction():
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, seed=3)
    e0 = chain_energy(state, params)
    dt = 0.1 / params.omega_max
    traj = integrate_chain(state, params, duration=50.0, dt=dt, stride=100)
    energies = [chain_energy(ChainState(traj.q[i], traj.p[i]), params) for i in range(traj.n_snapshots)]
    ripple = (params.omega_max * dt) ** 2 / 2.0
    assert np.max(np.abs(np.array(energies) - e0)) / e0 <= ripple


def test_zero_state_stays_zero():
    params = ChainParams(n_sites=8)
    traj = integrate_chain(ChainState(np.zeros(8), np.zeros(8)), params,
                           duration=5.0, dt=0.1)
    assert float(np.max(np.abs(traj.q))) == 0.0
    assert float(np.max(np.abs(traj.p))) == 0.0


def test_snapshots_are_uniform_and_cover_the_duration():
    params = ChainParams(n_sites=8)
    state = ChainState(np.zeros(8), np.ones(8))
    traj = integrate_chain(state, params, duration=1.0, dt=0.03, stride=7)
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
    q = state.q.copy()
    p = state.p.copy()
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
    return ChainState(rng.standard_normal(n), rng.standard_normal(n))


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
    energies = [chain_energy(ChainState(traj.q[i], traj.p[i]), params)
                for i in range(traj.n_snapshots)]
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
    traj = integrate_chain(state, params, **run)
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
    state = ChainState(q, np.zeros(8))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StabilityError):
        integrate_chain(state, params, duration=0.1, dt=0.1)


def test_infinite_initial_energy_raises_stability_error():
    # q^2 = 1e310 overflows, so e0 = inf and a 10x cap could never trip
    params = ChainParams(n_sites=8)
    state = ChainState(np.full(8, 1e155), np.zeros(8))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StabilityError):
        integrate_chain(state, params, duration=0.1, dt=0.1)


def _roll_stride_map(params, h, stride, friction):
    """Rows: each of the 2N unit vectors after one stride of _roll_leapfrog."""
    n = params.n_sites
    rows = []
    for unit in np.eye(2 * n):
        _, qs, ps = _roll_leapfrog(ChainState(unit[:n], unit[n:]), params,
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


@pytest.mark.parametrize("params, friction", [
    (ChainParams(n_sites=16), 0.05),
    # no pinning and no friction: the k = 0 mode drifts freely
    (ChainParams(n_sites=16, gamma=0.0), 0.0),
], ids=["friction", "gamma-zero-drift"])
def test_stride_map_route_matches_roll_reference(params, friction):
    state = _random_state(16, 7)
    run = dict(duration=100.0, dt=0.025, friction=friction, stride=40)
    traj = integrate_chain(state, params, **run)
    times, _, _ = _assert_matches_roll_reference(traj, params, state, run)
    if params.gamma == 0.0:
        # the centre of mass really moves: sum q grows by sum p per unit time
        drift = float(np.sum(state.p)) * (times[-1] - times[0])
        assert abs(np.sum(traj.q[-1]) - np.sum(state.q) - drift) <= 1e-9 * abs(drift)


@pytest.mark.parametrize("window_floats", [2 ** 18, 64, 16],
                         ids=["whole", "site-blocks", "tap-blocks"])
def test_windowed_product_matches_roll_reference_in_blocks(monkeypatch,
                                                           window_floats):
    # a09's 256 sites at stride 12, a kernel 27 sites wide: one window matrix,
    # one site per block, and blocks of 8 taps that sum into each site
    monkeypatch.setattr(chain, "_WINDOW_FLOATS", window_floats)
    params = ChainParams(n_sites=256)
    state = sample_thermal_state(params, 1.0, 3)
    run = dict(duration=30.0, dt=0.05, friction=0.01, stride=12)
    traj = integrate_chain(state, params, **run)
    _assert_matches_roll_reference(traj, params, state, run)


def test_window_buffer_is_capped_whatever_the_kernel_width():
    # 4096 sites at stride 1000: the kernel is 2003 sites wide, and one
    # window matrix would hold 4096 x 4006 floats, 125 MiB
    params = ChainParams(n_sites=4096)
    state = sample_thermal_state(params, 1.0, 1)
    tracemalloc.start()
    try:
        traj = integrate_chain(state, params, duration=100.0, dt=0.05,
                               stride=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert traj.n_snapshots == 3
    # the window buffer and a few arrays of N + w floats
    assert peak <= 2 * 8 * chain._WINDOW_FLOATS


@pytest.mark.parametrize("stride", [1, 16], ids=["stencil", "stride-map"])
def test_blow_up_to_inf_raises_stability_error_on_either_route(stride):
    # the zone-boundary mode at dt just below 2/w_max: energy finite at the
    # start (1.6e307, cap 1.6e308) but carried by p alone, so at the extremes
    # of q it is ~5000x larger and overflows to inf; the kernel is banded at
    # stride 1 and wraps at stride 16
    params = ChainParams(n_sites=8)
    dt = (1.0 - 1e-4) * 2.0 / params.omega_max
    state = ChainState(np.zeros(8), 2e153 * np.array([1.0, -1.0] * 4))
    assert math.isfinite(10.0 * chain_energy(state, params))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StabilityError, match="grew to (inf|nan)"):
        integrate_chain(state, params, duration=640 * dt, dt=dt, stride=stride)


def test_blow_up_raises_at_the_end_of_its_energy_block(monkeypatch):
    # blocks of 5 snapshots, the first ending at snapshot 5: the energy of the
    # zone-boundary mode passes the cap mid-block, and the block's first
    # snapshot over the cap is the one reported
    monkeypatch.setattr(chain, "_ENERGY_FLOATS", 5 * 8)
    params = ChainParams(n_sites=8)
    run = dict(duration=640 * 0.99 * 2.0 / params.omega_max,
               dt=0.99 * 2.0 / params.omega_max)
    state = ChainState(np.zeros(8), 1e-3 * np.array([1.0, -1.0] * 4))
    _, qs, ps = _roll_leapfrog(state, params, **run)
    energies = np.array([chain_energy(ChainState(q, p), params)
                         for q, p in zip(qs, ps)])
    first = int(np.flatnonzero(energies > 10.0 * energies[0])[0])
    assert first % 5 != 0
    with pytest.raises(StabilityError, match=f"grew to {energies[first]:.3g} "):
        integrate_chain(state, params, **run)


def _traced_peak(fn, *args, **kwargs):
    """fn's result and the peak of memory traced while it runs."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_spectral_dispersion_transient_memory_is_bounded():
    # the mode amplitudes, and then in place their time spectrum, overwrite
    # the trajectory's snapshot buffer, so only the row blocks of the mode
    # transform and the blocks of |spectrum| come on top of it: 0.32x here.
    # The copying route, a second complex buffer beside the snapshots,
    # read 1.32x
    params = ChainParams(n_sites=64)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj = integrate_chain(state, params, duration=200.0, dt=0.1)
    assert traj.q.shape == (2001, 64)
    snapshot_bytes = traj.q.nbytes + traj.p.nbytes
    _, peak = _traced_peak(spectral_dispersion, traj, params)
    assert peak <= 0.35 * snapshot_bytes


def test_spectral_dispersion_transient_memory_at_a09_length():
    # a09's 2096 snapshots on 256 sites: the blocks shrink against the
    # buffer, 0.08x (0.19x with 256-row blocks, 1.19x on the copying route)
    params = ChainParams(n_sites=256)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj = integrate_chain(state, params, duration=400.0 * math.pi, dt=0.05,
                           stride=12)
    assert traj.q.shape == (2096, 256)
    snapshot_bytes = traj.q.nbytes + traj.p.nbytes
    _, peak = _traced_peak(spectral_dispersion, traj, params)
    assert peak <= 0.1 * snapshot_bytes


def test_integrate_chain_transient_memory_is_bounded():
    # the snapshot buffer becomes the trajectory's without a copy; on top
    # of it come the window buffer and one energy block's temporaries
    params = ChainParams(n_sites=1024)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj, peak = _traced_peak(integrate_chain, state, params,
                              duration=400.0 * math.pi, dt=0.05, stride=12)
    assert traj.q.shape == (2096, 1024)
    assert peak <= 1.1 * (traj.q.nbytes + traj.p.nbytes)


def test_chain_dispersion_path_holds_one_snapshot_buffer():
    # integrate_chain then spectral_dispersion, as `chain-dispersion --sites
    # 1024` runs them: one buffer of the snapshots' bytes serves the whole
    # path, 1.05x at the peak (1.19x with 256-row blocks of the mode
    # transform, 2.19x on the copying route)
    params = ChainParams(n_sites=1024)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    sizes = []

    def path():
        traj = integrate_chain(state, params, duration=400.0 * math.pi,
                               dt=0.05, stride=12)
        sizes.append((traj.q.shape, traj.q.nbytes + traj.p.nbytes))
        return spectral_dispersion(traj, params)

    (measured, _), peak = _traced_peak(path)
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


def test_trajectory_holds_the_integrated_buffers_read_only():
    params = ChainParams(n_sites=8)
    traj = integrate_chain(_random_state(8, 4), params, duration=5.0, dt=0.1)
    again = chain.ChainTrajectory(traj.times, traj.q.base, traj.energies)
    for name in ("times", "q", "p", "energies"):
        arr = getattr(traj, name)
        assert not arr.flags.writeable
        # the buffers integrate_chain filled, taken as they are by both
        assert np.shares_memory(getattr(again, name), arr)
    # q and p are the real and imaginary parts of one complex buffer: they
    # interleave, so they share its extent but no byte
    assert traj.q.base is traj.p.base
    assert traj.q.base.dtype == complex and traj.q.base.shape == traj.q.shape
    assert np.may_share_memory(traj.q, traj.p)
    assert traj.q.nbytes + traj.p.nbytes == traj.q.base.nbytes


def test_amplitude_handover_matches_the_copying_route(monkeypatch):
    # several row blocks, the last one short: the handover writes over the
    # snapshots the very values mode_amplitudes gives for copies of them
    for n_sites in (15, 16):
        # blocks of 7 rows
        monkeypatch.setattr(chain, "_AMPLITUDE_FLOATS", 7 * n_sites)
        params = ChainParams(n_sites=n_sites)
        state = sample_thermal_state(params, beta=1.0, seed=n_sites)
        traj = integrate_chain(state, params, duration=30.0, dt=0.1, stride=2)
        assert traj.n_snapshots % 7
        want, want_omega = mode_amplitudes(traj.q.copy(), traj.p.copy(), params)
        buffer = traj.q.base
        amps, omega = traj.into_amplitudes(params)
        assert amps is buffer
        assert np.array_equal(amps, want) and np.array_equal(omega, want_omega)


def test_snapshots_raise_once_handed_over():
    params = ChainParams(n_sites=8)
    state = sample_thermal_state(params, beta=1.0, seed=2)
    for hand_over in (lambda traj: traj.into_amplitudes(params),
                      lambda traj: spectral_dispersion(traj, params)):
        traj = integrate_chain(state, params, duration=20.0, dt=0.1)
        hand_over(traj)
        for read in (lambda: traj.q, lambda: traj.p,
                     lambda: traj.into_amplitudes(params)):
            with pytest.raises(ValueError, match="overwritten"):
                read()
        # times and energies are not part of the buffer
        assert traj.times.size == traj.energies.size == traj.n_snapshots


def test_handover_checks_the_sites_before_writing():
    params = ChainParams(n_sites=8)
    state = sample_thermal_state(params, beta=1.0, seed=2)
    traj = integrate_chain(state, params, duration=5.0, dt=0.1)
    before = traj.q.copy()
    with pytest.raises(ValueError, match="params expect 16"):
        traj.into_amplitudes(ChainParams(n_sites=16))
    assert np.array_equal(traj.q, before)


def test_single_mode_oscillates_at_its_dispersion_frequency():
    params = ChainParams(n_sites=16)
    state = _plane_wave(params, 2, 0.9)
    w2 = dispersion(params.wavenumbers[2], params)
    period = 2.0 * math.pi / w2
    traj = integrate_chain(state, params, duration=period, dt=period / 4096)
    np.testing.assert_allclose(traj.q[-1], state.q, atol=5e-5)
    np.testing.assert_allclose(traj.p[-1], state.p, atol=5e-5)


# -- spectral dispersion ---------------------------------------------------------------

def test_spectral_peak_of_a_single_mode():
    params = ChainParams(n_sites=16)
    omega = dispersion(params.wavenumbers, params)
    state = _plane_wave(params, 5, 1.0)
    traj = integrate_chain(state, params, duration=60.0 * math.pi, dt=0.05,
                           stride=8)
    # the reference amplitudes are taken before spectral_dispersion writes
    # over the snapshots
    amps, _ = mode_amplitudes(traj.q, traj.p, params)
    measured, resolution = spectral_dispersion(traj, params)
    # every mode but 5 and its mirror 11 measures NaN as unexcited, not a
    # faked frequency
    np.testing.assert_array_equal(np.flatnonzero(~np.isnan(measured)), [5, 11])
    assert abs(measured[5] - omega[5]) <= resolution
    # mode 11 holds only leapfrog leakage of mode 5, of relative size
    # (w h)^2 / 16, with equal peaks at +w and -w: which sign its argmax
    # picks is left to rounding
    mag = np.abs(np.fft.fft(amps, axis=0))
    peak = int(np.argmax(mag[:, 5]))
    mirror = traj.n_snapshots - peak
    assert abs(mag[peak, 11] - mag[mirror, 11]) <= 1e-9 * mag[peak, 11]
    h = traj.times[1] / 8
    leakage = np.max(mag[:, 11]) / np.max(mag[:, 5])
    assert leakage == pytest.approx((omega[5] * h) ** 2 / 16.0, rel=0.01)


def _full_array_spectral_dispersion(traj, params):
    """Reference: the peak finder over one full |spectrum| array of the
    full-FFT amplitudes, one argmax per mode."""
    n_snap = traj.n_snapshots
    dt_snap = float(traj.times[1] - traj.times[0])
    mag = np.abs(np.fft.fft(_full_fft_amplitudes(traj.q, traj.p, params), axis=0))
    measured = np.full(params.n_sites, np.nan)
    scale = float(np.max(mag))
    for j in range(params.n_sites):
        col = mag[:, j]
        i_peak = int(np.argmax(col))
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
        integrate_chain(state, params, **run), params)
    # one block of all modes, and blocks of 3 modes with a short last one;
    # each spectrum is taken in a fresh trajectory's snapshot buffer
    for modes in (None, 3):
        traj = integrate_chain(state, params, **run)
        if modes:
            monkeypatch.setattr(chain, "_SPECTRUM_FLOATS",
                                modes * traj.n_snapshots)
        measured, _ = spectral_dispersion(traj, params)
        assert np.array_equal(np.isnan(measured), np.isnan(want))
        good = ~np.isnan(want)
        assert np.all(np.abs(measured[good] - want[good])
                      <= 1e-12 * np.abs(want[good]))


def test_spectral_dispersion_full_thermal_band():
    params = ChainParams(n_sites=32)
    state = sample_thermal_state(params, 1.0, seed=42)
    t_max = 40.0 * 2.0 * math.pi / dispersion(0.0, params)
    traj = integrate_chain(state, params, duration=t_max, dt=0.05, stride=12)
    measured, resolution = spectral_dispersion(traj, params)
    omega = dispersion(params.wavenumbers, params)
    assert np.max(np.abs(measured - omega)) <= resolution     # NaN fails


def test_spectral_dispersion_flat_band():
    params = ChainParams(n_sites=8, gamma=4.0, gamma_couple=0.0)
    state = sample_thermal_state(params, 1.0, seed=5)
    traj = integrate_chain(state, params, duration=100.0, dt=0.05, stride=4)
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
    """Runs the CLI in-process and returns the rows of each table, as dicts
    by column, by CSV name, after asserting exit 0: every check passed."""
    outcome = cli.evaluate(cli.build_parser().parse_args(argv))
    assert outcome.code == cli.EXIT_PASS, argv
    return {name: [dict(zip(header, row)) for row in rows]
            for name, header, rows in outcome.tables}


def test_rescale_preserves_energy():
    # rescaled-single-frequency-energy: w0 sum |a~|^2 is the chain energy
    _passes_every_check("rescale", "--seed", "1")


def test_rescale_is_identity_on_a_flat_band():
    rows = _passes_every_check("rescale", "--seed", "1", "--sites", "8",
                               "--gamma-couple", "0")["rescale_modes.csv"]
    assert len(rows) == 8
    for row in rows:
        assert float(row["lambda"]) == 1.0
        assert row["abs_amplitude_rescaled"] == row["abs_amplitude"]


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
    rates = np.array([float(row["rate"]) for row in rows])
    assert np.all(rates[~np.isnan(rates)] > 0) and not np.all(np.isnan(rates))


def test_relaxation_control_run_conserves_energy():
    # control-energy-conserved: without friction no rate is fitted
    rows = _passes_every_check("relax", "--alpha", "0",
                               "--seed", "5")["relax_rates.csv"]
    assert all(math.isnan(float(row["rate"])) for row in rows)
    assert all(float(row["target_rate"]) == 0.0 for row in rows)


def test_relaxation_rejects_negative_alpha(usage_error):
    usage_error(["relax", "--seed", "1", "--alpha", "-0.1"], "--alpha")
    for flag in ("--dt", "--t-max"):
        usage_error(["relax", "--seed", "1", flag, "0"], flag)
    usage_error(["relax", "--seed", "1", "--stride", "0"], "--stride")
