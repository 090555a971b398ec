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

from .errors import (
    CapacityError, StabilityError, block_width, check_capacity, point_blocks)

__all__ = [
    "ChainParams",
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
        # a subnormal mass or spacing: named here, before numpy meets them
        if not math.isfinite(self.omega_max):
            raise FloatingPointError(
                f"top mode frequency sqrt((gamma + 4 gamma_c)/m) = "
                f"{self.omega_max:g} must be finite")
        if not math.isfinite(self.zone_boundary):
            raise FloatingPointError(
                f"zone boundary pi/a = {self.zone_boundary:g} must be finite")

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


def _check_sites(n_sites: int, params: ChainParams):
    if n_sites != params.n_sites:
        raise ValueError(
            f"state has {n_sites} sites, params expect {params.n_sites}"
        )


def chain_energy(q: np.ndarray, p: np.ndarray, params: ChainParams):
    """Chain energy of each state (q, p) along the last axis, with periodic
    boundary q_0 = q_N: a scalar for one state, an array for a batch.  An
    axis -1 sum over a block of rows gives each row's own sum bit for bit.
    The three squares are formed in turn in the one `stretch` temporary.
    The stretch is one flat difference over the whole block, then each row's
    boundary column: a difference taken row by row over a strided block
    would run through numpy's buffered iterator and its buffers."""
    _check_sites(q.shape[-1], params)
    stretch = np.empty_like(q, order="C")
    flat_q, flat = q.reshape(-1), stretch.reshape(-1)
    np.subtract(flat_q[1:], flat_q[:-1], out=flat[1:])
    np.subtract(q[..., :1], q[..., -1:], out=stretch[..., :1])
    stretch_sq = np.sum(np.multiply(stretch, stretch, out=stretch), axis=-1)
    p_sq = np.sum(np.multiply(p, p, out=stretch), axis=-1)
    q_sq = np.sum(np.multiply(q, q, out=stretch), axis=-1)
    return 0.5 * (p_sq / params.mass + params.gamma_couple * stretch_sq
                  + params.gamma * q_sq)


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


def mode_amplitudes(q: np.ndarray, p: np.ndarray, params: ChainParams,
                    out: np.ndarray = None):
    """Complex normal-mode amplitudes in FFT order, along the last axis:
    a_j = (sqrt(m w_j) Q_j + i P_j / sqrt(m w_j)) / sqrt(2), Q and P the
    unitary DFTs of q and p, so that sum_j w_j |a_j|^2 is the chain energy;
    returns (a, omega).  Every w_j must be positive, as in a chain that
    sample_thermal_state accepts.

    a is written into `out`, a complex array of q's shape, when one is
    given, and into a new one otherwise.  The rows are taken in blocks of
    block_width(4N) rows at most, 4N floats a row's two rffts: 64 rows at
    256 sites.  Each block takes the half-spectrum rfft of q and of p, forms
    a_j for 0 <= j <= N/2, and fills the negative wavenumbers from the
    Hermitian symmetry of a real input, Q_{-j} = conj(Q_j) and P_{-j} =
    conj(P_j), so a_{-j} = conj(W_j Q_j - i P_j / W_j) / sqrt(2) (Sorensen
    et al., IEEE TASSP 35 (1987)).  A block's two rffts are taken before
    the block is written and blocks are disjoint, so `out` may be the very
    buffer whose real and imaginary parts q and p are: a trajectory's
    snapshots become their mode amplitudes in place.
    """
    n = params.n_sites
    _check_sites(q.shape[-1], params)
    if out is None:
        out = np.empty(q.shape, dtype=complex)
    q, p, rows = (np.reshape(x, (-1, n)) for x in (q, p, out))
    omega = dispersion(params.wavenumbers, params)
    half = n // 2 + 1                   # wavenumbers 0 .. N/2
    mirrored = n - half                 # wavenumbers -1 .. -(N-1)/2
    weight = np.sqrt(params.mass * omega[:half])
    root_2n = math.sqrt(2.0 * n)
    q_factor = weight / root_2n
    p_factor = 1j / (weight * root_2n)
    for block in point_blocks(rows.shape[0], block_width(4 * n)):
        bigq = np.fft.rfft(q[block], axis=-1)
        bigq *= q_factor
        bigp = np.fft.rfft(p[block], axis=-1)
        bigp *= p_factor
        # columns N-1 down to `half` hold wavenumbers -1 .. -mirrored
        negative = rows[block, half:][:, ::-1]
        np.subtract(bigq[:, 1:mirrored + 1], bigp[:, 1:mirrored + 1],
                    out=negative)
        np.conjugate(negative, out=negative)
        np.add(bigq, bigp, out=rows[block, :half])
    return out, omega


def reconstruct_state(amps: np.ndarray, params: ChainParams):
    """Invert mode_amplitudes: amplitudes back to (q, p), two new float
    arrays.  The mirror conjugates make the state real for any amplitude
    vector; a state with an entry that is not finite raises
    FloatingPointError."""
    n = params.n_sites
    if amps.shape != (n,):
        raise ValueError(f"{amps.shape} amplitudes, params expect ({n},)")
    mirror = np.conj(amps[(-np.arange(n)) % n])
    weight = np.sqrt(params.mass * dispersion(params.wavenumbers, params))
    bigq = (amps + mirror) / (math.sqrt(2.0) * weight)
    bigp = weight * (amps - mirror) / (1j * math.sqrt(2.0))
    root_n = math.sqrt(n)
    q = np.fft.ifft(bigq * root_n).real.copy()
    p = np.fft.ifft(bigp * root_n).real.copy()
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(p))):
        raise FloatingPointError("state entries must be finite")
    return q, p


def sample_thermal_state(params: ChainParams, beta: float, seed):
    """Draw (q, p) from the Gibbs weight e^{-beta H}: each mode amplitude is
    an independent complex Gaussian with E|a_j|^2 = 1/(beta w_j).  At a
    subnormal beta 1/(beta w_j) overflows, at a subnormal gamma the mode
    displacement variance 1/(2 beta m w_j^2), and the state is refused with
    FloatingPointError before numpy can warn about it.  A chain whose N
    complex amplitudes pass MAX_SNAPSHOT_FLOATS raises CapacityError before
    a draw."""
    check_capacity(2 * params.n_sites,
                   f"the thermal state of {params.n_sites} sites")
    omega = dispersion(params.wavenumbers, params)
    if np.any(omega <= 0):
        raise ValueError("thermal sampling needs gamma > 0 (all modes bound)")
    with np.errstate(over="ignore", divide="ignore"):
        variance = 0.5 / (beta * omega)
        displacement = variance / (params.mass * omega)
    if not np.all(np.isfinite(variance)):
        raise FloatingPointError("state entries must be finite")
    if not np.all(np.isfinite(displacement)):
        raise FloatingPointError("mode displacement variance 1/(2 beta m w^2)"
                                 f" = {np.max(displacement):g} must be finite")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(variance)
    amps = sigma * (rng.standard_normal(params.n_sites)
                    + 1j * rng.standard_normal(params.n_sites))
    return reconstruct_state(amps, params)


# -- integration ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainTrajectory:
    """Strided leapfrog snapshots: times (S,), the (S, N) site states in one
    complex buffer, whose real part is q and imaginary part p, and the chain
    energy of each snapshot (S,).  A complex row of N amplitudes takes
    exactly the bytes of one q row and one p row, so
    mode_amplitudes(traj.q, traj.p, params, out=traj.snapshots) writes the
    mode amplitudes over the snapshots."""

    times: np.ndarray
    snapshots: np.ndarray
    energies: np.ndarray

    @property
    def q(self) -> np.ndarray:
        """Site displacements (S, N), the buffer's real part."""
        return self.snapshots.real

    @property
    def p(self) -> np.ndarray:
        """Site momenta (S, N), the buffer's imaginary part."""
        return self.snapshots.imag


def _leapfrog_stride(q0: np.ndarray, p0: np.ndarray, params: ChainParams,
                     h: float, decay: float, stride: int):
    """`stride` kick-drift-kick steps of the (..., N) states (q0, p0) along the
    last axis; returns (q, p).  The force is -gamma_c (2 q_n - q_{n-1} -
    q_{n+1}) - gamma q_n with periodic neighbours; p decays by `decay` on
    either side of the drift, 1.0 without friction, which changes no float."""

    def half_kick(q):
        bend = 2.0 * q - np.roll(q, 1, axis=-1) - np.roll(q, -1, axis=-1)
        return (0.5 * h) * (-params.gamma_couple * bend - params.gamma * q)

    q = np.array(q0, dtype=float)
    p = np.array(p0, dtype=float)
    for _ in range(stride):
        p += half_kick(q)
        p *= decay
        q += (h / params.mass) * p
        p *= decay
        p += half_kick(q)
    return q, p


def _stride_kernel(params: ChainParams, h: float, decay: float,
                   stride: int) -> np.ndarray:
    """One stride as a circulant kernel (2, 2, w), w = min(N, 2 stride + 3):
    entry [d, c, i] is what channel c (0 for q, 1 for p) at site n + i - w // 2
    adds to channel d at site n.  Kicks couple nearest neighbours, so a delta
    moves q by at most `stride` sites and p by one more; the kernel is read
    off a q-delta and a p-delta at site 0, stepped as one (2, M) batch on a
    ring of M = min(N, 2 stride + 5) sites.  Where M < N the two fronts
    stay two untouched sites apart, so every site of the kernel sees the
    operations it sees on the whole chain: the same floats for O(stride^2)
    work in place of O(stride N)."""
    n = params.n_sites
    ring = min(n, 2 * stride + 5)
    delta = np.zeros((2, ring))
    delta[0, 0] = 1.0
    q, p = _leapfrog_stride(delta, delta[::-1], params, h, decay, stride)
    width = min(n, 2 * stride + 3)
    return np.take(np.stack((q, p)), (width // 2 - np.arange(width)) % ring,
                   axis=-1)


def integrate_chain(q: np.ndarray, p: np.ndarray, params: ChainParams,
                    duration: float, dt: float, friction: float = 0.0,
                    stride: int = 1) -> ChainTrajectory:
    """Leapfrog (kick-drift-kick) evolution of the state (q, p) with optional
    per-site friction.

    Friction enters as the exact momentum decay e^{-alpha dt/2} on either
    side of the drift.  The step must satisfy dt < 2/w_max or the scheme is
    linearly unstable; energy growth past 10x the initial value, or to NaN,
    aborts with StabilityError at the end of the first block of
    block_width(N) snapshots that holds one, and so does an initial energy
    whose 10x cap is not finite.  Snapshots are taken every `stride` steps
    (the step count is rounded up to a multiple of stride so the run ends
    on one), each with its chain_energy, the numbers the stability check
    tested.  q and p are written into one complex (S, N) buffer, q its real
    part and p its imaginary part, which the trajectory keeps without a
    copy; its times and energies are read-only.

    The scheme is linear and the chain uniform and periodic, so `stride`
    steps are one translation-invariant map (Hairer, Lubich & Wanner,
    Geometric Numerical Integration, ch. IX): a circulant whose kernel,
    w = min(N, 2 stride + 3) sites wide, _stride_kernel builds with the
    stencil.  Each snapshot gathers the (2, N) state into a wrapped buffer,
    copies its windows into a (2w, N) matrix, in blocks of at most
    block_width(2w) sites (past 1213 sites at stride 12), and multiplies
    each by the whole (2, 2w) kernel: 4wN multiply-adds in a few calls,
    where the stencil makes about 20N * stride in about 20 * stride.  A
    block holds at least one site, so the window buffer passes the budget
    only where 2w > 2**16, that is --stride >= 16 383 on --sites >= 32 769;
    there it holds 2w <= 2N floats, at most half the snapshot buffer of two
    or more 2N-float rows, and at most an eighth of it at the 8 snapshots a
    spectrum needs.  The product sums in another order than the stencil, so
    the two agree to rounding.  It is never applied by FFT, which would
    step in mode space, where spectral_dispersion measures.
    """
    _check_sites(q.shape[-1], params)
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
    e0 = float(chain_energy(q, p, params))
    e_cap = 10.0 * max(e0, 1e-300)
    if not math.isfinite(e_cap):
        # an infinite cap would let every inf snapshot through the check below
        raise StabilityError(
            f"initial energy {e0:.3g} leaves no finite cap for the stability check"
        )
    n = params.n_sites
    n_snap = n_steps // stride + 1
    check_capacity(n_snap * n, f"{n_snap} snapshots of {n} sites")
    snapshots = np.empty((n_snap, n), dtype=complex)
    qs, ps = snapshots.real, snapshots.imag
    energies = np.empty(n_snap)
    qs[0], ps[0], energies[0] = q, p, e0

    kernel = _stride_kernel(params, h, decay, stride)
    width = kernel.shape[-1]
    k = kernel.reshape(2, 2 * width)
    sites = min(n, block_width(2 * width))
    buffer = np.empty(2 * width * sites)
    wrap = (np.arange(n + width - 1) - width // 2) % n
    wrapped = np.empty((2, n + width - 1))
    # windows[c, i, n] is channel c at site n + i - width // 2
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=1)
    x = np.stack((q, p))
    blocks = []     # windows, their copy, output sites
    for cut in point_blocks(n, sites):
        window = windows[:, :, cut]
        blocks.append((window, buffer[:window.size].reshape(window.shape),
                       x[:, cut]))
    check_rows = block_width(n)
    for s in range(1, n_snap):
        x.take(wrap, axis=1, out=wrapped)
        for window, copy, out in blocks:
            np.copyto(copy, window)
            np.matmul(k, copy.reshape(2 * width, -1), out=out)
        qs[s], ps[s] = x
        if s % check_rows and s < n_snap - 1:
            continue
        block = slice(s - (s - 1) % check_rows, s + 1)
        energies[block] = chain_energy(qs[block], ps[block], params)
        over = np.flatnonzero(~(energies[block] <= e_cap))
        if over.size:
            raise StabilityError(
                f"energy grew to {energies[block][over[0]]:.3g} (initial {e0:.3g}); "
                "reduce dt")
    times = h * stride * np.arange(n_snap)
    times.setflags(write=False)
    energies.setflags(write=False)
    return ChainTrajectory(times, snapshots, energies)


def spectral_dispersion(traj: ChainTrajectory, params: ChainParams):
    """Measure w(k) from trajectory data, one FFT peak per mode; returns
    (measured, resolution), the frequencies in FFT order and the frequency
    bin 2 pi / T_window.

    Each amplitude evolves as a_j(t) ~ e^{-i w_j t}, so the time spectrum
    peaks at signed frequency -w_j; the peak is refined by parabolic
    interpolation on log|X| and reported as a positive frequency.  A mode
    with no excitation (or no curvature at the peak) measures NaN.

    The mode amplitudes are written over the trajectory's snapshots and the
    time spectrum X is taken in place in them, so no second array of the
    trajectory's size is made, and traj.snapshots holds X afterwards.  |X|
    is formed in blocks of block_width(S) modes at most, S snapshots a mode
    (31 modes at a09's 2096), each block giving its modes' peaks and the two
    neighbours of each in one argmax.
    """
    n_snap = traj.times.size
    n = params.n_sites
    dt_snap = float(traj.times[1] - traj.times[0])
    amps, _ = mode_amplitudes(traj.q, traj.p, params, out=traj.snapshots)
    spectrum = np.fft.fft(amps, axis=0, out=amps)
    width = block_width(n_snap)         # modes per block
    mag = np.empty((min(width, n), n_snap))
    i_peaks = np.empty(n, dtype=int)
    around = np.empty((3, n))           # |X| below, at and above each peak
    for cols in point_blocks(n, width):
        block = mag[:cols.stop - cols.start]
        np.abs(spectrum[:, cols].T, out=block)
        i_peaks[cols] = i_peak = np.argmax(block, axis=1)
        around[:, cols] = block[np.arange(block.shape[0]),
                                (i_peak + np.arange(-1, 2)[:, None]) % n_snap]
    measured = np.full(n, np.nan)
    excited = np.flatnonzero(~(around[1] <= 1e-12 * float(np.max(around[1]))))
    # the neighbours floored at 1e-300, and libm's log of each value, one
    # call a value: np.log moves the last bit of a few
    floored = np.maximum(around[:, excited], [[1e-300], [0.0], [1e-300]])
    lm, l0, lp = np.reshape([math.log(v) for v in floored.ravel().tolist()],
                            floored.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = lm - 2.0 * l0 + lp
        shift = 0.5 * (lm - lp) / denom
    # clamped to [-0.5, 0.5] as Python's max and min clamp it, NaN to -0.5
    shift = np.fmin(0.5, np.fmax(-0.5, shift))
    i_peak = i_peaks[excited]
    signed_bin = np.where(i_peak < n_snap - n_snap // 2, i_peak, i_peak - n_snap)
    nu = (signed_bin + shift) / (n_snap * dt_snap)
    # a peak without curvature (a flat spectrum) measures NaN
    measured[excited] = np.where(denom >= 0.0, np.nan, -2.0 * math.pi * nu)
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

def mode_commutator_check(n_modes: int, n_levels: int, hbar: float) -> np.ndarray:
    """Residuals max_n |<n|[a_j, a+_l]|n'> - hbar delta_jl| on interior states.

    The ladder operators of distinct modes act on distinct tensor factors,
    so both operator orderings multiply the same two scalars and the
    difference vanishes identically -- in floating point too, since scalar
    multiplication commutes.  On the diagonal the round trips reduce to the
    radicands (n+1) hbar and n hbar before any square root is taken, so the
    residual is exactly zero whenever those products are exact (hbar = 1 in
    particular).  Interior means every occupation stays at least one level
    below the truncation so no raise can overflow.  Arrays over (j, l,
    occupation) take every residual at once.
    """
    if n_modes > 4 or n_levels > 6:
        raise CapacityError("tensor product capped at 4 modes x 6 levels")
    if not (hbar > 0 and math.isfinite(hbar)):
        raise FloatingPointError(f"hbar = {hbar:g} must be positive and finite")
    interior = n_levels - 1          # occupations 0 .. n_levels-2 inclusive
    occupations = np.indices((interior,) * n_modes).reshape(n_modes, -1)
    n_j, n_l = occupations[:, None], occupations[None, :]
    same = np.eye(n_modes, dtype=int)[:, :, None]
    # the radicand pairs of a+_l then a_j, and of a_j then a+_l; each product
    # sqrt(r1) sqrt(r2) of an equal pair collapses to the radicand, so that a
    # raise-then-lower round trip costs no square-root rounding
    r1 = np.stack(np.broadcast_arrays(n_l + 1, n_j)) * hbar
    r2 = np.stack(np.broadcast_arrays(n_j + same, n_l + 1 - same)) * hbar
    forward, backward = np.where(r1 == r2, r1, np.sqrt(r1) * np.sqrt(r2))
    target = forward - backward - same * hbar
    # fmax, as Python's max, passes over a NaN residual
    return np.fmax.reduce(np.abs(target), axis=-1, initial=0.0)
