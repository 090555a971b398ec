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
    CapacityError, StabilityError, block_width, check_capacity, check_finite,
    check_steps, point_blocks, step_count)

__all__ = [
    "ChainParams",
    "ChainTrajectory",
    "chain_energy",
    "dispersion",
    "mode_amplitudes",
    "reconstruct_state",
    "sample_thermal_state",
    "snapshot_count",
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
        # a stiffness derived from in-range flags (1/a^2) overflowed
        check_finite(self.gamma + self.gamma_couple, "gamma + gamma_couple")
        if self.gamma == 0 and self.gamma_couple == 0:
            raise ValueError("gamma and gamma_couple cannot both vanish")
        # a subnormal mass or spacing: named here, before numpy meets them
        check_finite(self.omega_max,
                     "top mode frequency sqrt((gamma + 4 gamma_c)/m)")
        check_finite(self.zone_boundary, "zone boundary pi/a")

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
    FloatingPointError before numpy can warn about it; so is a chain whose
    displacement variances span more than 1/eps^2 (gamma below about
    2e-31 gamma_c), whose narrowest modes would be lost to rounding.  A
    chain whose N complex amplitudes pass MAX_SNAPSHOT_FLOATS raises
    CapacityError before a draw."""
    check_capacity(2 * params.n_sites,
                   f"the thermal state of {params.n_sites:.3g} sites")
    omega = dispersion(params.wavenumbers, params)
    if np.any(omega <= 0):
        raise ValueError("thermal sampling needs gamma > 0 (all modes bound)")
    with np.errstate(over="ignore", divide="ignore"):
        variance = 0.5 / (beta * omega)
        displacement = variance / (params.mass * omega)
    if not np.all(np.isfinite(variance)):
        raise FloatingPointError("state entries must be finite")
    low, high = float(np.min(displacement)), float(np.max(displacement))
    check_finite(high, "mode displacement variance 1/(2 beta m w^2)")
    # each site sums the modes: one whose spread lies below the rounding of
    # the widest one's is lost from every site before the first step
    eps = float(np.finfo(float).eps)
    if low < high * eps * eps:
        raise FloatingPointError(
            f"mode displacement variances 1/(2 beta m w^2) from {low:.3g} to "
            f"{high:.3g} span more than 1/eps^2 = {eps ** -2:.3g}: the "
            "narrowest modes would round away in the sites")
    rng = np.random.default_rng(seed)
    sigma = np.sqrt(variance)
    amps = sigma * (rng.standard_normal(params.n_sites)
                    + 1j * rng.standard_normal(params.n_sites))
    return reconstruct_state(amps, params)


# -- integration ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChainTrajectory:
    """Strided leapfrog snapshots: times (S,), the snapshot buffer, the
    chain energy of each snapshot (S,), and the site displacements q and
    momenta p, views into the buffer.

    A trajectory that recorded momenta holds one complex (S, N) buffer, q
    its real part and p its imaginary part: a complex row of N amplitudes
    takes exactly the bytes of one q row and one p row, so
    mode_amplitudes(traj.q, traj.p, params, out=traj.snapshots) writes the
    mode amplitudes over the snapshots.  A displacement-only trajectory
    holds one float (S, W) buffer, W = 2 (N//2 + 1), N + 2 at even N: q is
    its first S N floats, a C-ordered (S, N) array, and p an (S, 0) view,
    no momenta.  Each row has room for the N//2 + 1 complex values of a
    half spectrum, which spectral_dispersion writes over the buffer."""

    times: np.ndarray
    snapshots: np.ndarray
    energies: np.ndarray
    q: np.ndarray
    p: np.ndarray


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


def snapshot_count(params: ChainParams, duration: float, dt: float,
                   stride: int = 1) -> int:
    """Snapshots integrate_chain takes of a run: the initial state and one
    every `stride` steps, `errors.step_count` of duration/dt rounded up to
    a multiple of stride so that the run ends on one.  A duration that is
    not positive and finite, or a step count that overflows, raises
    FloatingPointError, a step at or beyond the stability bound 2/w_max
    StabilityError, and `errors.check_steps` refuses a run over its cap."""
    check_finite(duration, "duration", positive=True)
    w_max = params.omega_max
    if dt >= 2.0 / w_max:
        raise StabilityError(
            f"dt = {dt:.4g} at or beyond the stability bound 2/w_max = {2.0 / w_max:.4g}"
        )
    n_steps = step_count(duration, dt,
                         f"step count duration/dt = {duration:g}/{dt:g}")
    strides = math.ceil(n_steps / stride)
    check_steps(stride * strides,
                f"--stride {stride:.3g} leapfrog steps a snapshot x "
                f"{strides:.3g} snapshots after the first")
    return strides + 1


def integrate_chain(q: np.ndarray, p: np.ndarray, params: ChainParams,
                    duration: float, dt: float, friction: float = 0.0,
                    stride: int = 1, momenta: bool = True) -> ChainTrajectory:
    """Leapfrog (kick-drift-kick) evolution of the state (q, p) with optional
    per-site friction.

    Friction enters as the exact momentum decay e^{-alpha dt/2} on either
    side of the drift.  The step must satisfy dt < 2/w_max or the scheme is
    linearly unstable; energy growth past 10x the initial value, or to NaN,
    aborts with StabilityError at the end of the first block of
    block_width(N) snapshots that holds one, and so does an initial energy
    whose 10x cap is not finite.  Snapshots are taken every `stride` steps,
    snapshot_count of them, each with its chain_energy, the numbers the
    stability check tested.  With `momenta`, q and p are written into one
    complex (S, N) buffer, q its real part and p its imaginary part;
    without, q alone is written into the first S N floats of one float
    (S, 2 (N//2 + 1)) buffer, and the stability check takes each block's
    momenta from a rolling (block_width(N), N) block, so that each energy
    is the same float either way.  The trajectory keeps the buffer without
    a copy (ChainTrajectory); its times and energies are read-only.

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
    n_snap = snapshot_count(params, duration, dt, stride)
    n_steps = stride * (n_snap - 1)
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
    check_capacity(n_snap * n, f"{n_snap:.3g} snapshots of {n:.3g} sites")
    if momenta:
        snapshots = np.empty((n_snap, n), dtype=complex)
        qs, ps = snapshots.real, snapshots.imag
        ps[0] = p
    else:
        snapshots = np.empty((n_snap, 2 * (n // 2 + 1)))
        qs = snapshots.reshape(-1)[:n_snap * n].reshape(n_snap, n)
        ps = qs[:, :0]
    energies = np.empty(n_snap)
    qs[0], energies[0] = q, e0

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
    # the momenta: the snapshot buffer's, or a rolling block that holds the
    # current energy block's
    held = ps if momenta else np.empty((check_rows, n))
    for s in range(1, n_snap):
        x.take(wrap, axis=1, out=wrapped)
        for window, copy, out in blocks:
            np.copyto(copy, window)
            np.matmul(k, copy.reshape(2 * width, -1), out=out)
        first = s - (s - 1) % check_rows     # s's energy block starts here
        lag = 0 if momenta else first        # s's momenta are held[s - lag]
        qs[s], held[s - lag] = x
        if s % check_rows and s < n_snap - 1:
            continue
        block = energies[first:s + 1]
        block[...] = chain_energy(qs[first:s + 1],
                                  held[first - lag:s + 1 - lag], params)
        over = np.flatnonzero(~(block <= e_cap))
        if over.size:
            raise StabilityError(
                f"energy grew to {block[over[0]]:.3g} (initial {e0:.3g}); "
                "reduce dt")
    times = h * stride * np.arange(n_snap)
    times.setflags(write=False)
    energies.setflags(write=False)
    return ChainTrajectory(times, snapshots, energies, qs, ps)


def spectral_dispersion(traj: ChainTrajectory, params: ChainParams):
    """Measure w(k) from a displacement-only trajectory (integrate_chain
    with momenta=False), one FFT peak per mode; returns (measured,
    resolution), the frequencies in FFT order and the frequency bin
    2 pi / T_window.  A trajectory that recorded momenta raises ValueError.

    The unitary DFT of q is Q_j = (a_j + conj(a_-j)) / sqrt(2 m w_j), and
    each amplitude evolves as a_j(t) ~ e^{-i w_j t}, so the time spectrum
    of Q_j peaks at -w_j for mode j and at +w_j for mode -j.  Mode j, for
    0 <= j <= N/2, is read on the negative-frequency half of column j, and
    mode -j on its positive half with the sign flipped; each peak is refined
    by parabolic interpolation on log|X| and reported as a positive
    frequency.  A mode whose peak is at most 1e-12 of the largest (no
    excitation), or has no curvature, measures NaN.

    The spectrum is taken in place in the trajectory's buffer, so no second
    array of its size is made, and traj.snapshots holds X afterwards: the
    half-spectrum rfft of q in blocks of block_width(N + 2) rows at most,
    a row's N//2 + 1 complex values (63 rows at 1024 sites), each written
    over its own row, then the time FFT of the N//2 + 1 columns.  |X| is
    formed in blocks of block_width(S) columns at most, S snapshots a
    column (31 columns at a09's 2096), each block giving the peaks of its
    columns' modes and the two neighbours of each in one argmax a half.
    """
    if traj.p.shape[-1]:
        raise ValueError("spectral_dispersion reads a displacement-only "
                         "trajectory: integrate_chain(..., momenta=False)")
    n = params.n_sites
    _check_sites(traj.q.shape[-1], params)
    n_snap = traj.times.size
    dt_snap = float(traj.times[1] - traj.times[0])
    half = n // 2 + 1                   # wavenumbers 0 .. N/2
    mirrored = n - half                 # wavenumbers -1 .. -(N-1)/2
    spectrum = traj.snapshots.view(complex)
    # q's row r is floats [r N, r N + N) of the buffer, and its half
    # spectrum goes to floats [r W, r W + W), W = 2 half >= N: blocks
    # written from the last to the first write over rows of q already read
    for rows in reversed(point_blocks(n_snap, block_width(2 * half))):
        spectrum[rows] = np.fft.rfft(traj.q[rows], axis=-1)
    np.fft.fft(spectrum, axis=0, out=spectrum)
    split = n_snap - n_snap // 2        # bins below it: frequencies >= 0
    width = block_width(n_snap)         # columns per block
    mag = np.empty((min(width, half), n_snap))
    i_peaks = np.empty(n, dtype=int)
    around = np.empty((3, n))           # |X| below, at and above each peak
    offsets = np.arange(-1, 2)[:, None]
    for cols in point_blocks(half, width):
        block = mag[:cols.stop - cols.start]
        np.abs(spectrum[:, cols].T, out=block)
        # the columns j of the block, and those of them with a mode -j
        lo, hi = max(cols.start, 1), min(cols.stop, mirrored + 1)
        for modes, rows, bins in (
                (np.arange(cols.start, cols.stop), block,
                 slice(split, n_snap)),
                (n - np.arange(lo, hi),
                 block[lo - cols.start:hi - cols.start], slice(0, split))):
            i_peaks[modes] = i_peak = bins.start + np.argmax(rows[:, bins],
                                                             axis=1)
            around[:, modes] = rows[np.arange(rows.shape[0]),
                                    (i_peak + offsets) % n_snap]
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
    signed_bin = np.where(i_peak < split, i_peak, i_peak - n_snap)
    nu = (signed_bin + shift) / (n_snap * dt_snap)
    # mode j read at -w_j, mode -j at +w_j
    sign = np.where(excited < half, -2.0 * math.pi, 2.0 * math.pi)
    # a peak without curvature (a flat spectrum) measures NaN
    measured[excited] = np.where(denom >= 0.0, np.nan, sign * nu)
    return measured, 2.0 * math.pi / (n_snap * dt_snap)


# -- continuum limit -----------------------------------------------------------

def continuum_params_for(spacing: float, field_mass: float) -> ChainParams:
    """Chain parameters obeying the continuum scaling a^2 gamma_c / m = 1
    with on-site stiffness set by the field mass, gamma/m = M^2, on 8 sites
    of unit mass: the dispersion depends only on gamma/m and gamma_c/m, and
    on k but not on the number of sites.  A field mass or spacing whose
    square leaves the float range is refused by name before it is used."""
    check_finite(field_mass * field_mass, "on-site stiffness M^2")
    check_finite(spacing * spacing, f"squared spacing a^2 of the a = "
                 f"{spacing:g} chain", positive=True)
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
    check_finite(hbar, "hbar", positive=True)
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
