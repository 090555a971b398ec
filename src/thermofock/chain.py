"""Periodic chain of coupled oscillators as a 1D lattice field.

The chain Hamiltonian

    H = (1/2) sum_n [ p_n^2/m + gamma_c (q_n - q_{n-1})^2 + gamma q_n^2 ]

diagonalizes under the discrete Fourier transform into independent modes
with dispersion w(k)^2 = gamma/m + 4 (gamma_c/m) sin^2(k a / 2).  Complex
mode amplitudes a(k) make the energy sum_k w(k) |a(k)|^2; rescaling by
sqrt(w(k)/w(0)) trades the mode-dependent frequency for a uniform one, so
a single bath temperature hands every mode the same quantum of action.
Long-time leapfrog trajectories let the dispersion be *measured* from
spectral peaks and compared against the formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MAX_SNAPSHOT_FLOATS, CapacityError, StabilityError

__all__ = [
    "ChainParams",
    "ChainState",
    "ChainTrajectory",
    "chain_energy",
    "dispersion",
    "mode_amplitudes",
    "reconstruct_state",
    "sample_thermal_state",
    "integrate_chain",
    "spectral_dispersion",
    "continuum_error",
    "continuum_params_for",
    "mode_commutator_check",
]


@dataclass(frozen=True)
class ChainParams:
    """Geometry and stiffness of the periodic chain.

    `gamma` is the on-site (pinning) stiffness, `gamma_couple` the
    nearest-neighbour coupling; at least one must be positive so every
    mode frequency is real and the energy form is non-negative.
    """

    n_sites: int
    mass: float = 1.0
    gamma: float = 1.0
    gamma_couple: float = 1.0
    spacing: float = 1.0

    def __post_init__(self):
        if not (self.gamma >= 0 and self.gamma_couple >= 0):
            raise ValueError("gamma and gamma_couple must be >= 0")
        if math.isinf(self.gamma + self.gamma_couple):
            # a stiffness derived from in-range flags (1/a^2, M^2) overflowed
            raise FloatingPointError("gamma and gamma_couple must be finite")
        if self.gamma == 0 and self.gamma_couple == 0:
            raise ValueError("gamma and gamma_couple cannot both vanish")

    @property
    def zone_boundary(self) -> float:
        """Edge of the Brillouin zone, pi / spacing."""
        return math.pi / self.spacing

    @property
    def wavenumbers(self) -> np.ndarray:
        """Discrete k_j = 2 pi j / (N a) in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_sites, d=self.spacing)

    @property
    def omega_max(self) -> float:
        return math.sqrt((self.gamma + 4.0 * self.gamma_couple) / self.mass)


@dataclass(frozen=True, eq=False)
class ChainState:
    """Site displacements and momenta at one instant."""

    q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        p = np.array(self.p, dtype=float)
        if q.ndim != 1 or q.shape != p.shape:
            raise ValueError("q and p must be 1d arrays of equal length")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
            raise FloatingPointError("state entries must be finite")
        q.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)

    @property
    def n_sites(self) -> int:
        return self.q.size


def _check_sites(state: ChainState, params: ChainParams):
    if state.n_sites != params.n_sites:
        raise ValueError(
            f"state has {state.n_sites} sites, params expect {params.n_sites}"
        )


def _stretch(q: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Bond stretches q_n - q_{n-1} with periodic boundary q_0 = q_N,
    written into `out` by edge slices."""
    np.subtract(q[1:], q[:-1], out=out[1:])
    np.subtract(q[:1], q[-1:], out=out[:1])
    return out


def _energy(q: np.ndarray, p: np.ndarray, stretch: np.ndarray,
            params: ChainParams) -> float:
    return float(0.5 * (np.sum(p * p) / params.mass
                        + params.gamma_couple * np.sum(stretch * stretch)
                        + params.gamma * np.sum(q * q)))


def chain_energy(state: ChainState, params: ChainParams) -> float:
    """Total energy with periodic boundary q_0 = q_N."""
    _check_sites(state, params)
    return _energy(state.q, state.p, _stretch(state.q, np.empty_like(state.q)),
                   params)


def dispersion(k, params: ChainParams):
    """Mode frequency w(k) = sqrt(gamma/m + 4 (gamma_c/m) sin^2(k a / 2)).

    Defined on the first Brillouin zone |k| <= pi/a; out-of-zone wavenumbers
    are rejected rather than silently aliased.
    """
    k_arr = np.asarray(k, dtype=float)
    if np.any(np.abs(k_arr) > params.zone_boundary * (1.0 + 1e-9)):
        raise ValueError("wavenumber outside the first Brillouin zone")
    w2 = (params.gamma
          + 4.0 * params.gamma_couple * np.sin(0.5 * k_arr * params.spacing) ** 2
          ) / params.mass
    w = np.sqrt(w2)
    return float(w) if np.isscalar(k) or k_arr.ndim == 0 else w


_ROW_BLOCK = 256     # rows of p transformed at once by mode_amplitudes


def mode_amplitudes(q: np.ndarray, p: np.ndarray, params: ChainParams):
    """Complex normal-mode amplitudes in FFT order, along the last axis:
    a_j = (sqrt(m w_j) Q_j + i P_j / sqrt(m w_j)) / sqrt(2), Q and P the
    unitary DFTs of q and p, so that sum_j w_j |a_j|^2 is the chain energy;
    returns (a, omega).  Every w_j must be positive, as in a chain that
    sample_thermal_state accepts.  a is formed in Q's buffer, and P is
    transformed and added in blocks of rows, so the peak is the transform
    of q rather than Q plus a full P.
    """
    n = params.n_sites
    if q.shape[-1] != n:
        raise ValueError(f"state has {q.shape[-1]} sites, params expect {n}")
    root_n = math.sqrt(n)
    omega = dispersion(params.wavenumbers, params)
    amps = np.fft.fft(q, axis=-1)
    amps /= root_n
    weight = np.sqrt(params.mass * omega)
    amps *= weight
    rows_a = amps.reshape(-1, n)
    rows_p = np.reshape(p, (-1, n))
    for start in range(0, rows_a.shape[0], _ROW_BLOCK):
        block = slice(start, start + _ROW_BLOCK)
        bigp = np.fft.fft(rows_p[block], axis=-1)
        bigp /= root_n
        bigp *= 1j
        bigp /= weight
        rows_a[block] += bigp
    amps /= math.sqrt(2.0)
    return amps, omega


def reconstruct_state(amps: np.ndarray, params: ChainParams) -> ChainState:
    """Invert mode_amplitudes: amplitudes back to (q, p).  The mirror
    conjugates make the state real for any amplitude vector."""
    n = params.n_sites
    if amps.shape != (n,):
        raise ValueError(f"{amps.shape} amplitudes, params expect ({n},)")
    mirror = np.conj(amps[(-np.arange(n)) % n])
    weight = np.sqrt(params.mass * dispersion(params.wavenumbers, params))
    bigq = (amps + mirror) / (math.sqrt(2.0) * weight)
    bigp = weight * (amps - mirror) / (1j * math.sqrt(2.0))
    root_n = math.sqrt(n)
    q = np.real(np.fft.ifft(bigq * root_n))
    p = np.real(np.fft.ifft(bigp * root_n))
    return ChainState(q, p)


def sample_thermal_state(params: ChainParams, beta: float, seed) -> ChainState:
    """Draw (q, p) from the Gibbs weight e^{-beta H}: each mode amplitude is
    an independent complex Gaussian with E|a_j|^2 = 1/(beta w_j)."""
    omega = dispersion(params.wavenumbers, params)
    if np.any(omega <= 0):
        raise ValueError("thermal sampling needs gamma > 0 (all modes bound)")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(0.5 / (beta * omega))
    amps = sigma * (rng.standard_normal(params.n_sites)
                    + 1j * rng.standard_normal(params.n_sites))
    return reconstruct_state(amps, params)


# -- integration ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainTrajectory:
    """Strided leapfrog snapshots: times (S,), q and p (S, N), and the
    chain energy of each snapshot (S,)."""

    times: np.ndarray
    q: np.ndarray
    p: np.ndarray
    energies: np.ndarray

    def __post_init__(self):
        for name in ("times", "q", "p", "energies"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if (self.q.shape != self.p.shape or self.q.shape[0] != self.times.size
                or self.energies.shape != self.times.shape):
            raise ValueError("inconsistent snapshot shapes")

    @property
    def n_snapshots(self) -> int:
        return self.times.size


_MAP_MAX_SITES = 64     # largest chain given a stride map: (2N)^2 floats, 128 KiB


def _uses_stride_map(n_sites: int, stride: int, n_snap: int) -> bool:
    """integrate_chain's route rule: compose the stride map when 2N <= stride,
    N <= _MAP_MAX_SITES and the run moves through at least 3 + N // 8
    strides (n_snap counts the initial snapshot too), else step the stencil
    between snapshots.  Building the map costs about a stride of the 2N-row
    batch, which only enough products recover."""
    return (2 * n_sites <= stride and n_sites <= _MAP_MAX_SITES
            and n_snap - 1 >= 3 + n_sites // 8)


def _leapfrog_strides(q0: np.ndarray, p0: np.ndarray, params: ChainParams,
                      h: float, decay: float, stride: int):
    """Kick-drift-kick leapfrog along the last axis of (..., N) states.

    Yields the live (q, p) buffers after every `stride` steps, without end;
    the caller copies what it keeps.  The force is evaluated once per step: q
    does not move between a step's closing half-kick and the next step's
    opening one, so both add the same kick.  The stencil is written into
    preallocated buffers, with q padded by two ghost sites in place of
    np.roll, in the order 2 q_n, minus q_{n-1}, minus q_{n+1}, times
    -gamma_c, minus gamma q_n; every float therefore matches the textbook
    loop that evaluates the force twice per step, row by row.
    """
    damped = decay != 1.0
    # q sits between two ghost sites that hold its periodic neighbours
    padded = np.empty(q0.shape[:-1] + (q0.shape[-1] + 2,))
    q = padded[..., 1:-1]
    q[...] = q0
    left, right = padded[..., :-2], padded[..., 2:]
    ghost_lo, ghost_hi = padded[..., :1], padded[..., -1:]
    first, last = q[..., :1], q[..., -1:]
    p = np.array(p0, dtype=float)
    kick = np.empty_like(q)
    work = np.empty_like(q)
    neg_gc, gamma = -params.gamma_couple, params.gamma
    half_h, h_over_m = 0.5 * h, h / params.mass

    def half_kick():
        """kick = (h/2) F(q), F = -gamma_c (2q - left - right) - gamma q."""
        ghost_lo[...] = last
        ghost_hi[...] = first
        np.multiply(q, 2.0, out=kick)
        np.subtract(kick, left, out=kick)
        np.subtract(kick, right, out=kick)
        np.multiply(kick, neg_gc, out=kick)
        np.multiply(q, gamma, out=work)
        np.subtract(kick, work, out=kick)
        np.multiply(kick, half_h, out=kick)

    half_kick()
    while True:
        for _ in range(stride):
            p += kick
            if damped:
                p *= decay
            np.multiply(p, h_over_m, out=work)
            q += work
            if damped:
                p *= decay
            half_kick()
            p += kick
        yield q, p


def integrate_chain(state: ChainState, params: ChainParams, duration: float,
                    dt: float, friction: float = 0.0,
                    stride: int = 1) -> ChainTrajectory:
    """Leapfrog (kick-drift-kick) evolution with optional per-site friction.

    Friction enters as the exact momentum decay e^{-alpha dt/2} on either
    side of the drift, so alpha = 0 is bit-for-bit the symplectic scheme.
    The step must satisfy dt < 2/w_max or the scheme is linearly unstable;
    energy growth past 10x the initial value, or to NaN, aborts with
    StabilityError, and so does an initial energy whose 10x cap is not
    finite.  Snapshots are taken every `stride` steps (uniformly
    spaced; the step count is rounded up to a multiple of stride so the run
    ends on one).  The trajectory carries each snapshot's chain_energy, the
    same numbers the stability check tested.

    Both routes step with _leapfrog_strides, the one step rule:
    - stencil: the (N,) state is stepped from snapshot to snapshot, bit for
      bit the textbook loop;
    - stride map: the scheme is linear, so `stride` steps are one 2N x 2N
      map.  It is built by stepping the 2N unit vectors as one batch, friction
      included, and the state then moves by one product with it per
      snapshot: the same scheme up to rounding (Hairer, Lubich & Wanner,
      Geometric Numerical Integration, ch. IX).
    The map is taken when 2N <= stride, N <= 64 and the run has at least
    3 + N // 8 strides (_uses_stride_map).  A product then costs
    4N^2 <= 2N * stride multiply-adds, fewer than the ~12N * stride element
    operations of the stencil steps it replaces, in one call where they make
    about 12 * stride: small chains are bound by per-call overhead.  The cap
    bounds the map at 128 KiB whatever the stride.  Building the map costs
    about one stride of the 2N-row batch, so a run of few strides stays on
    the stencil.  Map time over stencil time, 2 cores, friction 0.01, best of
    15, stride 2N to 8N, at the rule's edge: 0.61-0.82 for N <= 4 (3
    strides), 0.39-0.54 for N = 8 to 32, 0.52-0.81 at N = 64 (11); one
    stride costs 1.4-2.0x for N <= 16 and 5.5-5.8x at N = 64, and one
    stride short of the edge up to 1.12x.
    At N = 16, stride 40, 20 000 steps took 0.21 s stenciled and 0.009 s
    mapped.  chain-dispersion (N >= 256, stride 12) stays on the stencil,
    which a09 tests against the dispersion formula.
    """
    _check_sites(state, params)
    if not (duration > 0 and math.isfinite(duration)):
        raise FloatingPointError(
            f"duration {duration:g} must be positive and finite")
    w_max = params.omega_max
    if dt >= 2.0 / w_max:
        raise StabilityError(
            f"dt = {dt:.4g} at or beyond the stability bound 2/w_max = {2.0 / w_max:.4g}"
        )
    n_steps = max(1, math.ceil(duration / dt - 1e-12))
    n_steps = stride * math.ceil(n_steps / stride)
    h = duration / n_steps
    decay = math.exp(-friction * h / 2.0)
    e0 = chain_energy(state, params)
    e_cap = 10.0 * max(e0, 1e-300)
    if not math.isfinite(e_cap):
        # an infinite cap would let every inf snapshot through the check below
        raise StabilityError(
            f"initial energy {e0:.3g} leaves no finite cap for the stability check"
        )
    n = params.n_sites
    n_snap = n_steps // stride + 1
    if n_snap * n > MAX_SNAPSHOT_FLOATS:
        raise CapacityError(
            f"{n_snap:.3g} snapshots of {n} sites exceed the snapshot buffer cap "
            f"of {MAX_SNAPSHOT_FLOATS} floats")
    qs = np.empty((n_snap, n))
    ps = np.empty_like(qs)
    energies = np.empty(n_snap)
    qs[0], ps[0], energies[0] = state.q, state.p, e0
    stretch = np.empty(n)

    def record(s, q, p):
        qs[s], ps[s] = q, p
        energy = _energy(qs[s], ps[s], _stretch(qs[s], stretch), params)
        if not energy <= e_cap:
            raise StabilityError(
                f"energy grew to {energy:.3g} (initial {e0:.3g}); reduce dt"
            )
        energies[s] = energy

    if _uses_stride_map(n, stride, n_snap):
        unit = np.eye(2 * n)
        mq, mp = next(_leapfrog_strides(unit[:, :n], unit[:, n:], params, h,
                                        decay, stride))
        # row i is where one stride takes the i-th unit vector, so x @ m steps x
        m = np.concatenate((mq, mp), axis=1)
        x = np.concatenate((state.q, state.p))
        for s in range(1, n_snap):
            x = x @ m
            record(s, x[:n], x[n:])
    else:
        strides = _leapfrog_strides(state.q, state.p, params, h, decay, stride)
        # range comes first, so zip stops without stepping past the last snapshot
        for s, (q, p) in zip(range(1, n_snap), strides):
            record(s, q, p)
    times = h * stride * np.arange(n_snap)
    return ChainTrajectory(times=times, q=qs, p=ps, energies=energies)


def spectral_dispersion(traj: ChainTrajectory, params: ChainParams):
    """Measure w(k) from trajectory data, one FFT peak per mode; returns
    (measured, resolution), the frequencies in FFT order and the frequency
    bin 2 pi / T_window.

    Each amplitude evolves as a_j(t) ~ e^{-i w_j t}, so the time spectrum
    peaks at signed frequency -w_j; the peak is refined by parabolic
    interpolation on log|X| and reported as a positive frequency.  A mode
    with no excitation (or no curvature at the peak) measures NaN.
    """
    n_snap = traj.n_snapshots
    dt_snap = float(traj.times[1] - traj.times[0])
    amps, _ = mode_amplitudes(traj.q, traj.p, params)
    mag = np.abs(np.fft.fft(amps, axis=0))
    measured = np.full(params.n_sites, np.nan)
    scale = float(np.max(mag)) if mag.size else 0.0
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
            continue                                    # no curvature: flat spectrum
        shift = 0.5 * (lm - lp) / denom
        shift = min(0.5, max(-0.5, shift))
        signed_bin = i_peak if i_peak < n_snap - n_snap // 2 else i_peak - n_snap
        nu = (signed_bin + shift) / (n_snap * dt_snap)
        measured[j] = -2.0 * math.pi * nu
    return measured, 2.0 * math.pi / (n_snap * dt_snap)


# -- continuum limit -----------------------------------------------------------

def continuum_params_for(spacing: float, field_mass: float) -> ChainParams:
    """Chain parameters obeying the continuum scaling a^2 gamma_c / m = 1
    with on-site stiffness set by the field mass, gamma/m = M^2, on 8 sites
    of unit mass: the dispersion depends only on gamma/m and gamma_c/m, and
    on k but not on the number of sites."""
    return ChainParams(n_sites=8, gamma=field_mass ** 2,
                       gamma_couple=1.0 / spacing ** 2, spacing=spacing)


def continuum_error(k_phys: float, params: ChainParams) -> float:
    """|w(k)^2 - (k^2 + M^2)|: the lattice dispersion against the continuum
    relativistic one.  Requires the scaling a^2 gamma_c / m = 1, under which
    the leading error is k^4 a^2 / 12."""
    scale = params.spacing ** 2 * params.gamma_couple / params.mass
    if abs(scale - 1.0) > 1e-9:
        raise ValueError("continuum scaling a^2 gamma_c/m = 1 not satisfied")
    m2 = params.gamma / params.mass
    w = dispersion(k_phys, params)
    return abs(w ** 2 - (k_phys ** 2 + m2))


# -- multimode Fock commutators ------------------------------------------------

def _ladder_product(r1: float, r2: float) -> float:
    """Product sqrt(r1) sqrt(r2), collapsing an equal pair to the radicand
    so that a raise-then-lower round trip costs no square-root rounding."""
    if r1 == r2:
        return r1
    return math.sqrt(r1) * math.sqrt(r2)


def mode_commutator_check(n_modes: int, n_levels: int, hbar: float) -> np.ndarray:
    """Residuals max_n |<n|[a_j, a+_l]|n'> - hbar delta_jl| on interior states.

    The ladder operators of distinct modes act on distinct tensor factors,
    so both operator orderings multiply the same two scalars and the
    difference vanishes identically -- in floating point too, since scalar
    multiplication commutes.  On the diagonal the round trips reduce to the
    radicands (n+1) hbar and n hbar before any square root is taken, so the
    residual is exactly zero whenever those products are exact (hbar = 1 in
    particular).  Interior means every occupation stays at least one level
    below the truncation so no raise can overflow.
    """
    if n_modes > 4 or n_levels > 6:
        raise CapacityError("tensor product capped at 4 modes x 6 levels")
    if not (hbar > 0 and math.isfinite(hbar)):
        raise FloatingPointError(f"hbar = {hbar:g} must be positive and finite")
    interior = n_levels - 1          # occupations 0 .. n_levels-2 inclusive
    residual = np.zeros((n_modes, n_modes))
    occupations = np.indices((interior,) * n_modes).reshape(n_modes, -1).T
    for j in range(n_modes):
        for l in range(n_modes):
            worst = 0.0
            for occ in occupations:
                n_l = int(occ[l])
                n_j = int(occ[j])
                # apply a+_l then a_j
                forward = _ladder_product((n_l + 1) * hbar,
                                          (n_j + (1 if j == l else 0)) * hbar)
                # apply a_j then a+_l
                backward = _ladder_product(n_j * hbar,
                                           (n_l + (0 if j == l else 1)) * hbar)
                target = forward - backward - (hbar if j == l else 0.0)
                worst = max(worst, abs(target))
            residual[j, l] = worst
    return residual
