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

from .errors import CapacityError, StabilityError, check_capacity

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


def _check_sites(n_sites: int, params: ChainParams):
    if n_sites != params.n_sites:
        raise ValueError(
            f"state has {n_sites} sites, params expect {params.n_sites}"
        )


def _energy(q: np.ndarray, p: np.ndarray, params: ChainParams):
    """Chain energy of each state along the last axis, with periodic boundary
    q_0 = q_N.  An axis -1 sum over a block of rows gives each row's own sum
    bit for bit."""
    stretch = np.empty_like(q)
    np.subtract(q[..., 1:], q[..., :-1], out=stretch[..., 1:])
    np.subtract(q[..., :1], q[..., -1:], out=stretch[..., :1])
    return 0.5 * (np.sum(p * p, axis=-1) / params.mass
                  + params.gamma_couple * np.sum(stretch * stretch, axis=-1)
                  + params.gamma * np.sum(q * q, axis=-1))


def chain_energy(state: ChainState, params: ChainParams) -> float:
    """Total energy with periodic boundary q_0 = q_N."""
    _check_sites(state.n_sites, params)
    return float(_energy(state.q, state.p, params))


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


# floats of q (and of p) transformed at once into amplitudes: a block of
# max(1, _AMPLITUDE_FLOATS // N) rows, so its two rffts hold about 2**14
# complex values (256 KiB) whatever N: 256 rows at 64 sites, 16 at 1024
_AMPLITUDE_FLOATS = 2 ** 14


def _write_amplitudes(q: np.ndarray, p: np.ndarray, out: np.ndarray,
                      params: ChainParams) -> np.ndarray:
    """Write the mode amplitudes of the (R, N) rows q and p into the complex
    (R, N) rows `out`, max(1, _AMPLITUDE_FLOATS // N) rows at a time;
    returns omega.

    Each block takes the half-spectrum rfft of q and of p, forms a_j for
    0 <= j <= N/2, and fills the negative wavenumbers from the Hermitian
    symmetry of a real input, Q_{-j} = conj(Q_j) and P_{-j} = conj(P_j), so
    a_{-j} = conj(W_j Q_j - i P_j / W_j) / sqrt(2) (Sorensen et al., IEEE
    TASSP 35 (1987)).  A block's two rffts are taken before the block is
    written and blocks are disjoint, so `out` may be the very buffer whose
    real and imaginary parts q and p are.
    """
    n = params.n_sites
    omega = dispersion(params.wavenumbers, params)
    half = n // 2 + 1                   # wavenumbers 0 .. N/2
    mirrored = n - half                 # wavenumbers -1 .. -(N-1)/2
    weight = np.sqrt(params.mass * omega[:half])
    root_2n = math.sqrt(2.0 * n)
    q_factor = weight / root_2n
    p_factor = 1j / (weight * root_2n)
    rows = max(1, _AMPLITUDE_FLOATS // n)
    for start in range(0, out.shape[0], rows):
        block = slice(start, start + rows)
        bigq = np.fft.rfft(q[block], axis=-1)
        bigq *= q_factor
        bigp = np.fft.rfft(p[block], axis=-1)
        bigp *= p_factor
        # columns N-1 down to `half` hold wavenumbers -1 .. -mirrored
        negative = out[block, half:][:, ::-1]
        np.subtract(bigq[:, 1:mirrored + 1], bigp[:, 1:mirrored + 1],
                    out=negative)
        np.conjugate(negative, out=negative)
        np.add(bigq, bigp, out=out[block, :half])
    return omega


def mode_amplitudes(q: np.ndarray, p: np.ndarray, params: ChainParams):
    """Complex normal-mode amplitudes in FFT order, along the last axis:
    a_j = (sqrt(m w_j) Q_j + i P_j / sqrt(m w_j)) / sqrt(2), Q and P the
    unitary DFTs of q and p, so that sum_j w_j |a_j|^2 is the chain energy;
    returns (a, omega).  Every w_j must be positive, as in a chain that
    sample_thermal_state accepts.

    a is a new complex array of q's shape; ChainTrajectory.into_amplitudes
    runs the same row-block kernel in place over a trajectory's snapshots.
    """
    n = params.n_sites
    _check_sites(q.shape[-1], params)
    amps = np.empty(q.shape, dtype=complex)
    omega = _write_amplitudes(np.reshape(q, (-1, n)), np.reshape(p, (-1, n)),
                              amps.reshape(-1, n), params)
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

class ChainTrajectory:
    """Strided leapfrog snapshots: times (S,), the chain energy of each
    snapshot (S,), and the (S, N) site states in one complex buffer, whose
    real part is q and imaginary part p.  The buffer is taken as it is, not
    copied, so integrate_chain's fresh one becomes the trajectory's; times
    and energies are made read-only in place, and q and p are read-only
    views of the buffer.

    A complex row of N amplitudes takes exactly the bytes of one q row and
    one p row, so into_amplitudes writes the mode amplitudes over the
    snapshots and hands the buffer on; from then on q and p raise.
    """

    def __init__(self, times, snapshots, energies):
        self.times = np.asarray(times, dtype=float)
        self.energies = np.asarray(energies, dtype=float)
        self.times.setflags(write=False)
        self.energies.setflags(write=False)
        buffer = np.asarray(snapshots, dtype=complex)
        if (buffer.ndim != 2 or buffer.shape[0] != self.times.size
                or self.energies.shape != self.times.shape):
            raise ValueError("inconsistent snapshot shapes")
        self._buffer = buffer

    def _part(self, name: str) -> np.ndarray:
        if self._buffer is None:
            raise ValueError("the snapshots were overwritten by their mode "
                             "amplitudes")
        view = getattr(self._buffer, name)
        view.setflags(write=False)
        return view

    @property
    def q(self) -> np.ndarray:
        """Site displacements (S, N), the buffer's real part."""
        return self._part("real")

    @property
    def p(self) -> np.ndarray:
        """Site momenta (S, N), the buffer's imaginary part."""
        return self._part("imag")

    @property
    def n_snapshots(self) -> int:
        return self.times.size

    def into_amplitudes(self, params: ChainParams):
        """Hand the snapshot buffer over as the snapshots' mode amplitudes:
        returns (amps, omega) with the values mode_amplitudes(q, p, params)
        gives, amps the buffer itself, written over in place block by block
        (_write_amplitudes).  q and p raise from then on."""
        q, p = self.q, self.p
        _check_sites(q.shape[1], params)
        buffer, self._buffer = self._buffer, None
        omega = _write_amplitudes(q, p, buffer, params)
        return buffer, omega


_WINDOW_FLOATS = 2 ** 18    # cap on the stride kernel's window buffer, 2 MiB
_ENERGY_FLOATS = 2 ** 16    # snapshot floats per stability-check block
_SPECTRUM_FLOATS = 2 ** 16  # |spectrum| floats per block of modes


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
    off a q-delta and a p-delta at site 0, stepped as one (2, N) batch."""
    n = params.n_sites
    delta = np.zeros((2, n))
    delta[0, 0] = 1.0
    q, p = _leapfrog_stride(delta, delta[::-1], params, h, decay, stride)
    width = min(n, 2 * stride + 3)
    return np.take(np.stack((q, p)), (width // 2 - np.arange(width)) % n, axis=-1)


def integrate_chain(state: ChainState, params: ChainParams, duration: float,
                    dt: float, friction: float = 0.0,
                    stride: int = 1) -> ChainTrajectory:
    """Leapfrog (kick-drift-kick) evolution with optional per-site friction.

    Friction enters as the exact momentum decay e^{-alpha dt/2} on either
    side of the drift.  The step must satisfy dt < 2/w_max or the scheme is
    linearly unstable; energy growth past 10x the initial value, or to NaN,
    aborts with StabilityError at the end of the first block of snapshots
    that holds one, and so does an initial energy whose 10x cap is not
    finite.  Snapshots are taken every `stride` steps (the step count is
    rounded up to a multiple of stride so the run ends on one), each with
    its chain_energy, the numbers the stability check tested.  q and p are
    written into one complex (S, N) buffer, q its real part and p its
    imaginary part, which the trajectory keeps without a copy.

    The scheme is linear and the chain uniform and periodic, so `stride`
    steps are one translation-invariant map (Hairer, Lubich & Wanner,
    Geometric Numerical Integration, ch. IX): a circulant whose kernel,
    w = min(N, 2 stride + 3) sites wide, _stride_kernel builds with the
    stencil.  Each snapshot gathers the (2, N) state into a wrapped buffer,
    copies its windows into a (2w, N) matrix, in blocks of sites (and of taps
    for the widest kernels) of at most _WINDOW_FLOATS floats, and multiplies
    that by the (2, 2w) kernel: 4wN multiply-adds in a few calls, where the
    stencil makes about 20N * stride in about 20 * stride.  The product sums
    in another order than the stencil, so the two agree to rounding.  It is
    never applied by FFT, which would step in mode space, where
    spectral_dispersion measures.
    """
    _check_sites(state.n_sites, params)
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
    check_capacity(n_snap * n, f"{n_snap} snapshots of {n} sites")
    snapshots = np.empty((n_snap, n), dtype=complex)
    qs, ps = snapshots.real, snapshots.imag
    energies = np.empty(n_snap)
    qs[0], ps[0], energies[0] = state.q, state.p, e0

    kernel = _stride_kernel(params, h, decay, stride)
    width = kernel.shape[-1]
    taps = min(width, _WINDOW_FLOATS // 2)
    sites = min(n, _WINDOW_FLOATS // (2 * taps))
    buffer = np.empty(2 * taps * sites)
    wrap = (np.arange(n + width - 1) - width // 2) % n
    wrapped = np.empty((2, n + width - 1))
    # windows[c, i, n] is channel c at site n + i - width // 2
    windows = np.lib.stride_tricks.sliding_window_view(wrapped, n, axis=1)
    x = np.stack((state.q, state.p))
    kernels = {t: kernel[..., t:t + taps].reshape(2, -1) for t in range(0, width, taps)}
    blocks = []     # windows, their copy, kernel taps, output sites, add in
    for lo in range(0, n, sites):
        for t, k in kernels.items():
            window = windows[:, t:t + taps, lo:lo + sites]
            blocks.append((window, buffer[:window.size].reshape(window.shape),
                           k, x[:, lo:lo + sites], t > 0))
    check_rows = max(1, _ENERGY_FLOATS // n)
    for s in range(1, n_snap):
        x.take(wrap, axis=1, out=wrapped)
        for window, copy, k, out, add in blocks:
            np.copyto(copy, window)
            if add:
                out += k @ copy.reshape(k.shape[1], -1)
            else:
                np.matmul(k, copy.reshape(k.shape[1], -1), out=out)
        qs[s], ps[s] = x
        if s % check_rows and s < n_snap - 1:
            continue
        block = slice(s - (s - 1) % check_rows, s + 1)
        energies[block] = _energy(qs[block], ps[block], params)
        over = np.flatnonzero(~(energies[block] <= e_cap))
        if over.size:
            raise StabilityError(
                f"energy grew to {energies[block][over[0]]:.3g} (initial {e0:.3g}); "
                "reduce dt")
    times = h * stride * np.arange(n_snap)
    return ChainTrajectory(times, snapshots, energies)


def spectral_dispersion(traj: ChainTrajectory, params: ChainParams):
    """Measure w(k) from trajectory data, one FFT peak per mode; returns
    (measured, resolution), the frequencies in FFT order and the frequency
    bin 2 pi / T_window.

    Each amplitude evolves as a_j(t) ~ e^{-i w_j t}, so the time spectrum
    peaks at signed frequency -w_j; the peak is refined by parabolic
    interpolation on log|X| and reported as a positive frequency.  A mode
    with no excitation (or no curvature at the peak) measures NaN.

    The trajectory hands its snapshot buffer over (into_amplitudes): the
    mode amplitudes are written over the snapshots and the time spectrum X
    is taken in place in them, so no second array of the trajectory's size
    is made, and traj.q and traj.p raise afterwards.  |X| is formed in blocks
    of modes of at most _SPECTRUM_FLOATS floats, each block giving its
    modes' peaks and the two neighbours of each in one argmax.
    """
    n_snap = traj.n_snapshots
    n = params.n_sites
    dt_snap = float(traj.times[1] - traj.times[0])
    amps, _ = traj.into_amplitudes(params)
    spectrum = np.fft.fft(amps, axis=0, out=amps)
    width = max(1, _SPECTRUM_FLOATS // n_snap)      # modes per block
    mag = np.empty((min(width, n), n_snap))
    i_peaks = np.empty(n, dtype=int)
    below, peaks, above = np.empty((3, n))
    for lo in range(0, n, width):
        cols = slice(lo, min(lo + width, n))
        block = mag[:cols.stop - lo]
        np.abs(spectrum[:, cols].T, out=block)
        i_peak = np.argmax(block, axis=1)
        rows = np.arange(block.shape[0])
        i_peaks[cols] = i_peak
        below[cols] = block[rows, (i_peak - 1) % n_snap]
        peaks[cols] = block[rows, i_peak]
        above[cols] = block[rows, (i_peak + 1) % n_snap]
    measured = np.full(n, np.nan)
    scale = float(np.max(peaks))
    for j, (i_peak, low, peak, high) in enumerate(zip(
            i_peaks.tolist(), below.tolist(), peaks.tolist(), above.tolist())):
        if peak <= 1e-12 * scale:
            continue
        lm = math.log(max(low, 1e-300))
        l0 = math.log(peak)
        lp = math.log(max(high, 1e-300))
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
