"""Oscillator-chain field model: mode decomposition, dispersion, integration,
continuum limit, multimode commutators, and relaxation.

Oracles: the closed-form dispersion w(k)^2 = gamma/m + 4 (gamma_c/m)
sin^2(ka/2), exact energy bookkeeping sum_j w_j |a_j|^2 = H (Parseval), and
the continuum law w^2 = k^2 + M^2 with leading lattice error k^4 a^2 / 12.
"""

import math
import tracemalloc

import numpy as np
import pytest

from thermofock import cli
from thermofock.chain import (
    _MAP_MAX_SITES,
    _uses_stride_map,
    ChainParams,
    ChainState,
    ModeSet,
    chain_energy,
    chain_relax,
    continuum_error,
    continuum_params_for,
    dispersion,
    integrate_chain,
    mode_commutator_check,
    normal_modes,
    reconstruct_state,
    rescale_modes,
    sample_thermal_state,
    spectral_dispersion,
)
from thermofock.errors import CapacityError, StabilityError


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
    modes = normal_modes(state, params)
    energy = chain_energy(state, params)
    assert modes.energy() == pytest.approx(energy, rel=1e-12)


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
        e_mode = normal_modes(state, params).energy()
        assert abs(e_mode - e_site) <= 1e-10 * e_site


def test_mode_round_trip_reconstructs_the_state():
    params = ChainParams(n_sites=16, mass=0.8, gamma=1.2, gamma_couple=0.9)
    rng = np.random.default_rng(7)
    for _ in range(50):
        state = ChainState(rng.standard_normal(16), rng.standard_normal(16))
        back = reconstruct_state(normal_modes(state, params), params)
        np.testing.assert_allclose(back.q, state.q, atol=1e-12)
        np.testing.assert_allclose(back.p, state.p, atol=1e-12)


def test_any_amplitude_vector_is_a_real_state():
    # the mirror-conjugate construction makes reconstruct real for ANY a
    params = ChainParams(n_sites=8)
    rng = np.random.default_rng(9)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    omega = dispersion(params.wavenumbers, params)
    modes = ModeSet(k=params.wavenumbers, omega=omega, amplitudes=amps,
                    mass=params.mass)
    state = reconstruct_state(modes, params)
    assert state.q.dtype == float and state.p.dtype == float
    again = normal_modes(state, params)
    np.testing.assert_allclose(again.amplitudes, amps, atol=1e-12)


def test_single_mode_excitation_is_a_plane_wave():
    params = ChainParams(n_sites=16)
    omega = dispersion(params.wavenumbers, params)
    amps = np.zeros(16, dtype=complex)
    amps[3] = 1.0
    modes = ModeSet(k=params.wavenumbers, omega=omega, amplitudes=amps,
                    mass=params.mass)
    state = reconstruct_state(modes, params)
    # |q_n| has a uniform envelope: a traveling wave, not a standing one
    fftq = np.abs(np.fft.fft(state.q))
    support = np.sort(np.argsort(fftq)[-2:])
    np.testing.assert_array_equal(support, [3, 13])   # +k and its mirror


def test_thermal_state_equipartition():
    params = ChainParams(n_sites=64)
    beta = 2.0
    state = sample_thermal_state(params, beta, seed=42)
    modes = normal_modes(state, params)
    # each mode carries E_j = w_j |a_j|^2 ~ Exp(1/beta): sum ~ N/beta
    scaled = beta * modes.omega * np.abs(modes.amplitudes) ** 2
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


def _roll_leapfrog(state, params, duration, dt, friction=0.0, stride=1):
    """Reference: the textbook kick-drift-kick loop with np.roll stencils and
    two force evaluations per step, as integrate_chain once ran it."""

    def force(q):
        gc = params.gamma_couple
        return -gc * (2.0 * q - np.roll(q, 1) - np.roll(q, -1)) - params.gamma * q

    n_steps = max(1, math.ceil(duration / dt - 1e-12))
    n_steps = stride * math.ceil(n_steps / stride)
    h = duration / n_steps
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
    times, qs, ps = _roll_leapfrog(state, params, **run)
    for got, want in ((traj.times, times), (traj.q, qs), (traj.p, ps)):
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()      # signed zeros too
    energies = [chain_energy(ChainState(traj.q[i], traj.p[i]), params) for i in range(traj.n_snapshots)]
    assert traj.energies.tolist() == energies


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


def test_stride_map_route_is_the_unit_vector_map_bit_for_bit():
    # h = 1/32 and one stride, 40 h = 1.25, are exact, so every unit-vector
    # run of the reference takes the trajectory's own step
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, 5)
    h, stride = 1.0 / 32.0, 40
    assert _uses_stride_map(params.n_sites, stride, 33)
    traj = integrate_chain(state, params, duration=40.0, dt=h, friction=0.05,
                           stride=stride)
    assert traj.n_snapshots == 33
    m = _roll_stride_map(params, h, stride, friction=0.05)
    x = np.concatenate((state.q, state.p))
    for s in range(1, traj.n_snapshots):
        x = x @ m
        assert traj.q[s].tobytes() == x[:16].tobytes()
        assert traj.p[s].tobytes() == x[16:].tobytes()
    energies = [chain_energy(ChainState(traj.q[i], traj.p[i]), params) for i in range(traj.n_snapshots)]
    assert traj.energies.tolist() == energies


@pytest.mark.parametrize("params, friction", [
    (ChainParams(n_sites=16), 0.05),
    # no pinning and no friction: the k = 0 mode drifts freely
    (ChainParams(n_sites=16, gamma=0.0), 0.0),
], ids=["friction", "gamma-zero-drift"])
def test_stride_map_route_matches_roll_reference(params, friction):
    state = _random_state(16, 7)
    run = dict(duration=100.0, dt=0.025, friction=friction, stride=40)
    assert _uses_stride_map(params.n_sites, run["stride"], 101)
    traj = integrate_chain(state, params, **run)
    times, qs, ps = _roll_leapfrog(state, params, **run)
    assert np.array_equal(traj.times, times)
    got = np.concatenate((traj.q, traj.p), axis=1)
    want = np.concatenate((qs, ps), axis=1)
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))
    if params.gamma == 0.0:
        # the centre of mass really moves: sum q grows by sum p per unit time
        drift = float(np.sum(state.p)) * (times[-1] - times[0])
        assert abs(np.sum(traj.q[-1]) - np.sum(state.q) - drift) <= 1e-9 * abs(drift)


@pytest.mark.parametrize("stride", [1, 16], ids=["stencil", "stride-map"])
def test_blow_up_to_inf_raises_stability_error_on_either_route(stride):
    # the zone-boundary mode at dt just below 2/w_max: energy finite at the
    # start (1.6e307, cap 1.6e308) but carried by p alone, so at the extremes
    # of q it is ~5000x larger and overflows to inf
    params = ChainParams(n_sites=8)
    assert _uses_stride_map(params.n_sites, stride, 640 // stride + 1) == (stride == 16)
    dt = (1.0 - 1e-4) * 2.0 / params.omega_max
    state = ChainState(np.zeros(8), 2e153 * np.array([1.0, -1.0] * 4))
    assert math.isfinite(10.0 * chain_energy(state, params))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StabilityError, match="grew to (inf|nan)"):
        integrate_chain(state, params, duration=640 * dt, dt=dt, stride=stride)


def test_route_rule_keeps_dispersion_on_the_stencil_and_caps_the_map():
    parser = cli.build_parser()
    dispersion_args = parser.parse_args(["chain-dispersion", "--seed", "1"])
    assert (dispersion_args.sites, dispersion_args.stride) == (256, 12)
    for sites in (256, 1024):
        assert not _uses_stride_map(sites, dispersion_args.stride, 10**6)
    relax_args = parser.parse_args(["relax", "--seed", "1"])
    # relax at its defaults: t_max = 10 / alpha, 40 000 steps, 1001 snapshots
    assert _uses_stride_map(relax_args.sites, relax_args.stride, 1001)
    # the rule's edge at the relax size: the map when 2N <= stride
    assert _uses_stride_map(16, 32, 1001) and not _uses_stride_map(16, 31, 1001)
    # building the map costs about one stride of the 2N-row batch, so a run
    # needs 3 + N // 8 strides to recover it
    for sites, strides in ((2, 3), (8, 4), (16, 5), (64, 11)):
        assert _uses_stride_map(sites, 2 * sites, strides + 1)
        assert not _uses_stride_map(sites, 2 * sites, strides)
    assert not _uses_stride_map(16, 40, 2)       # relax's size, one stride
    # the map holds (2N)^2 floats; the cap bounds it at 128 KiB for any stride
    for sites in (2, 16, 64, 128, 1024, 262144):
        for stride in (1, 12, 128, 10**6):
            if _uses_stride_map(sites, stride, 10**6):
                assert sites <= _MAP_MAX_SITES
                assert (2 * sites) ** 2 * 8 <= 128 * 1024
    assert (_uses_stride_map(64, 10**6, 10**6)
            and not _uses_stride_map(128, 10**6, 10**6))


def test_spectral_dispersion_transient_memory_is_bounded():
    # amplitudes are formed in Q's buffer with P added in row blocks, so the
    # peak is a, the spectrum and |spectrum| (2.5x); holding Q, P, a, the
    # spectrum and |spectrum| at once would read about 6x
    params = ChainParams(n_sites=64)
    state = sample_thermal_state(params, beta=1.0, seed=3)
    traj = integrate_chain(state, params, duration=200.0, dt=0.1)
    assert traj.q.shape == (2001, 64)
    tracemalloc.start()
    try:
        spectral_dispersion(traj, params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * (traj.q.nbytes + traj.p.nbytes)


def test_single_mode_oscillates_at_its_dispersion_frequency():
    params = ChainParams(n_sites=16)
    omega = dispersion(params.wavenumbers, params)
    amps = np.zeros(16, dtype=complex)
    amps[2] = 0.9
    modes = ModeSet(k=params.wavenumbers, omega=omega, amplitudes=amps,
                    mass=params.mass)
    state = reconstruct_state(modes, params)
    w2 = float(omega[2])
    period = 2.0 * math.pi / w2
    traj = integrate_chain(state, params, duration=period, dt=period / 4096)
    np.testing.assert_allclose(traj.q[-1], state.q, atol=5e-5)
    np.testing.assert_allclose(traj.p[-1], state.p, atol=5e-5)


# -- spectral dispersion ---------------------------------------------------------------

def test_spectral_peak_of_a_single_mode():
    params = ChainParams(n_sites=16)
    omega = dispersion(params.wavenumbers, params)
    amps = np.zeros(16, dtype=complex)
    amps[5] = 1.0
    modes = ModeSet(k=params.wavenumbers, omega=omega, amplitudes=amps,
                    mass=params.mass)
    state = reconstruct_state(modes, params)
    traj = integrate_chain(state, params, duration=60.0 * math.pi, dt=0.05,
                           stride=8)
    meas = spectral_dispersion(traj, params)
    assert not meas.skipped[5]
    assert abs(meas.omega_measured[5] - omega[5]) <= meas.resolution
    # reality of q excites the mirror -k as well; everything else is
    # flagged as unexcited, not faked
    resolved = np.flatnonzero(~meas.skipped)
    np.testing.assert_array_equal(resolved, [5, 11])
    assert abs(meas.omega_measured[11] - omega[11]) <= meas.resolution


def test_spectral_dispersion_full_thermal_band():
    params = ChainParams(n_sites=32)
    state = sample_thermal_state(params, 1.0, seed=42)
    t_max = 40.0 * 2.0 * math.pi / dispersion(0.0, params)
    traj = integrate_chain(state, params, duration=t_max, dt=0.05, stride=12)
    meas = spectral_dispersion(traj, params)
    assert not np.any(meas.skipped)
    assert meas.max_error <= meas.resolution


def test_spectral_dispersion_flat_band():
    params = ChainParams(n_sites=8, gamma=4.0, gamma_couple=0.0)
    state = sample_thermal_state(params, 1.0, seed=5)
    traj = integrate_chain(state, params, duration=100.0, dt=0.05, stride=4)
    meas = spectral_dispersion(traj, params)
    good = ~meas.skipped
    assert np.all(np.abs(meas.omega_measured[good] - 2.0) <= meas.resolution)


def test_spectral_dispersion_needs_enough_snapshots():
    params = ChainParams(n_sites=8)
    state = ChainState(np.zeros(8), np.ones(8))
    traj = integrate_chain(state, params, duration=0.5, dt=0.1)
    with pytest.raises(ValueError):
        spectral_dispersion(traj, params)


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


# -- rescaled modes -------------------------------------------------------------------------

def test_rescale_preserves_energy():
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, seed=11)
    modes = normal_modes(state, params)
    tilde = rescale_modes(modes)
    assert tilde.uniform_frequency == pytest.approx(dispersion(0.0, params))
    assert tilde.energy() == pytest.approx(modes.energy(), rel=1e-12)


def test_rescale_is_identity_on_a_flat_band():
    params = ChainParams(n_sites=8, gamma=4.0, gamma_couple=0.0)
    state = sample_thermal_state(params, 1.0, seed=2)
    modes = normal_modes(state, params)
    tilde = rescale_modes(modes)
    np.testing.assert_allclose(tilde.amplitudes, modes.amplitudes, rtol=1e-15)


def test_rescaled_equipartition_shares_one_hbar():
    # after rescaling, beta w0 sum |a~|^2 concentrates at the mode count N
    params = ChainParams(n_sites=64)
    beta = 1.0
    state = sample_thermal_state(params, beta, seed=42)
    tilde = rescale_modes(normal_modes(state, params))
    total = beta * tilde.uniform_frequency * float(
        np.sum(np.abs(tilde.amplitudes) ** 2))
    assert abs(total - 64) <= 4 * math.sqrt(64)


def test_rescale_guards():
    params = ChainParams(n_sites=8)
    modes = normal_modes(sample_thermal_state(params, 1.0, seed=1), params)
    tilde = rescale_modes(modes)
    with pytest.raises(ValueError):
        rescale_modes(tilde)                    # already rescaled
    with pytest.raises(ValueError):
        reconstruct_state(tilde, params)        # must undo the rescaling first


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


# -- relaxation ----------------------------------------------------------------------------------

def test_relaxation_rates_and_energy_decay():
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, seed=5)
    alpha = 0.01
    report = chain_relax(state, params, alpha=alpha, duration=10.0 / alpha,
                         dt=0.025, stride=40)
    assert report.worst_rate_error <= 0.05
    assert abs(report.energy_ratio - report.expected_ratio) <= 0.1 * report.expected_ratio
    assert report.monotone
    assert np.all(report.mode_rates[report.fitted] > 0)


def test_relaxation_control_run_conserves_energy():
    params = ChainParams(n_sites=16)
    state = sample_thermal_state(params, 1.0, seed=5)
    dt = 0.025
    report = chain_relax(state, params, alpha=0.0, duration=100.0, dt=dt, stride=40)
    assert report.energy_drift <= (params.omega_max * dt) ** 2 / 2.0
    assert report.expected_ratio == 1.0
    assert report.monotone


def test_relaxation_rejects_negative_alpha(usage_error):
    usage_error(["relax", "--seed", "1", "--alpha", "-0.1"], "--alpha")
    for flag in ("--dt", "--t-max"):
        usage_error(["relax", "--seed", "1", flag, "0"], flag)
    usage_error(["relax", "--seed", "1", "--stride", "0"], "--stride")
