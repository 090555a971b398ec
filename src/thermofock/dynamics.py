"""Time evolution of oscillator states, classical and quantum, side by side.

The same rotation shows up four ways: exact phase multiplication on basis
coefficients, transport of boundary profiles along circles |z| = const,
the diagonal Schrodinger propagator, and rigid rotation of classical
ensembles.  Keeping all four routes independent is the point -- their
agreement is what the harness checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bargmann import FockVector, hamiltonian_matrix, point_blocks
from .bath import SAMPLE_BLOCK, MomentSums
from .errors import CapacityError, SamplerError, TruncationError
from .phasespace import OscillatorParams, PhasePoint, hamilton_step

__all__ = [
    "EnsembleHistory",
    "profile_from_fock",
    "l2_grid_distance",
    "transport_solve",
    "evolve_exact",
    "schrodinger_evolve",
    "damped_solution",
    "ensemble_evolve",
    "cloud_centre",
]


def profile_from_fock(f: FockVector, radius: float, grid_size: int) -> np.ndarray:
    """Values of f on the circle |z| = radius at `grid_size` uniform angles.

    Raises TruncationError if a value overflows to inf or NaN: the series
    then says nothing about f on that circle.
    """
    phi = 2.0 * np.pi * np.arange(grid_size) / grid_size
    with np.errstate(over="ignore", invalid="ignore"):
        values = f.evaluate(radius * np.exp(1j * phi))
    if not np.all(np.isfinite(values)):
        raise TruncationError(
            f"the series of f overflows on the circle |z| = {radius:.6g}")
    return values


def l2_grid_distance(a, b) -> float:
    """Root-mean-square distance between two grids.

    The differences are scaled by a power of two at or above the largest, so
    their squares cannot overflow, and the scaling is exact: wherever the
    plain RMS neither overflows nor underflows this is the same float.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("grid shapes differ")
    diff = np.abs(a - b)
    top = float(np.max(diff, initial=0.0))
    if not 0.0 < top < math.inf:
        return top              # all equal, or an inf or NaN difference
    scale = math.ldexp(1.0, math.frexp(top)[1])
    return scale * float(np.sqrt(np.mean((diff / scale) ** 2)))


def transport_solve(values: np.ndarray, t: float, params: OscillatorParams,
                    scheme: str = "spectral", dt: float = None) -> np.ndarray:
    """Advance the transport equation df/dt + w df/dphi = 0 on the circle,
    from the profile `values` at uniform angles.

    The exact solution is rigid rotation of the profile by w t.  "spectral"
    applies the per-harmonic phases exp(-i m w t) (exact for band-limited
    data); "upwind" runs the first-order finite-difference scheme with step
    `dt` and enforces the CFL bound w dt <= dphi.
    """
    w = params.omega
    if scheme == "spectral":
        modes = np.fft.fftfreq(values.size, d=1.0 / values.size)
        return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * modes * w * t))
    if scheme == "upwind":
        if dt is None or dt <= 0:
            raise ValueError("upwind scheme requires dt > 0")
        if t == 0:
            return values.copy()
        dphi = 2.0 * np.pi / values.size
        n_steps = max(1, math.ceil(t / dt - 1e-12))
        dt_eff = t / n_steps
        nu = w * dt_eff / dphi
        if nu > 1.0 + 1e-12:
            raise ValueError(
                f"CFL violation: w*dt/dphi = {nu:.4g} > 1; shrink dt or refine the grid"
            )
        v = values.copy()
        for _ in range(n_steps):
            v = v - nu * (v - np.roll(v, 1))
        return v
    raise ValueError(f"unknown scheme {scheme!r}")


def evolve_exact(f: FockVector, t: float, params: OscillatorParams) -> FockVector:
    """Free oscillator evolution: c_n -> c_n exp(-i w n t)."""
    n = np.arange(f.coeffs.size)
    return FockVector(f.coeffs * np.exp(-1j * params.omega * n * t), f.hbar, f.tail_mass)


def schrodinger_evolve(f: FockVector, t: float, ordering: str,
                       params: OscillatorParams) -> FockVector:
    """Evolve with the diagonal Hamiltonian: c_n -> c_n exp(-i E_n t / hbar).

    Normal ordering reproduces evolve_exact; symmetric ordering differs by the
    global zero-point phase exp(-i w t / 2) only.
    """
    h = hamiltonian_matrix(ordering, params, f.hbar, f.truncation)
    energies = np.real(np.diag(h))
    return FockVector(f.coeffs * np.exp(-1j * energies * t / f.hbar), f.hbar, f.tail_mass)


def damped_solution(q0: float, v0: float, params: OscillatorParams,
                    friction: float, t) -> PhasePoint:
    """Closed-form motion of pdot = -w q - alpha p, alpha = `friction`,
    weakly damped with envelope exp(-alpha t / 2).

    q(t) = c1 exp(-i(w - i a/2) t) + c2 exp(+i(w + i a/2) t), both branches
    decaying like exp(-a t/2), with c1, c2 fixed by q(0) = q0 and the raw
    velocity qdot(0) = v0.  Valid for a << w; warns at a >= 0.1 w.  Returns
    the rescaled phase point (q, p = qdot/w); with an array `t` the fields
    hold arrays.
    """
    w = params.omega
    a = friction
    if a >= 0.1 * w:
        warnings.warn(
            "damping is not small (alpha >= 0.1 omega); the constant-envelope "
            "form neglects the O(alpha^2) frequency shift",
            stacklevel=2,
        )
    t = np.asarray(t, dtype=float)
    c1 = 0.5 * (q0 + 1j * (v0 + 0.5 * a * q0) / w)
    branch = np.exp((-1j * w - 0.5 * a) * t)
    # real initial data: the second branch is the conjugate of the first
    q = 2.0 * np.real(c1 * branch)
    qdot = 2.0 * np.real(c1 * (-1j * w - 0.5 * a) * branch)
    p = qdot / w
    if t.ndim == 0:
        return PhasePoint(float(q), float(p))
    return PhasePoint(q, p)


# -- ensembles ----------------------------------------------------------------

# Proposals one rejection chunk draws at most: 2^16 complex points are 1 MiB,
# sixteen `bargmann` point blocks, so a chunk's working arrays stay a few MiB
# whatever the number of samples.
_PROPOSAL_CHUNK = 2 ** 16
# Terms of exp(-conj(mu) u / hbar) the shifted majorant keeps at most; past
# them its Lagrange remainder still bounds the rest, only more loosely.
_EXP_TERMS_MAX = 4096


def _trimmed(f: FockVector) -> FockVector:
    """f without its trailing exact-zero coefficients: Horner's rule over
    them is an exact no-op, and the shifted majorant costs O(N^2)."""
    top = int(np.flatnonzero(f.coeffs)[-1]) + 1
    if top == f.coeffs.size:
        return f
    return FockVector(f.coeffs[:top], f.hbar, f.tail_mass)


def cloud_centre(f: FockVector) -> complex:
    """<z> under |f|^2 dmu, that is (f, z f) with z e_n = sqrt((n+1) hbar)
    e_{n+1}: sum_n conj(c_{n+1}) c_n sqrt((n+1) hbar).  0 for every e_n."""
    c = f.coeffs
    raise_by = np.sqrt(np.arange(1, c.size) * f.hbar)
    return complex(np.sum(np.conj(c[1:]) * c[:-1] * raise_by))


def _shifted_majorant(f: FockVector, mu: complex, reach: float):
    """A radial majorant G(|u|) >= |g(u)| of g(u) = f(mu + u)
    exp(-conj(mu) u / hbar); returns (degree, G), G taking an array of radii.

    In the basis, with w = mu / sqrt(hbar) and A e_n = sqrt(n) e_{n-1},
    translation by mu is exp(w A) and the factor is exp(-conj(w) A^+), both
    with weights T_d(k) = x^d sqrt((k + d)! / k!) / d! (x = w, -conj(w)):
      b = exp(w A) c        b_k = sum_d c_{k+d} T_d(k), finite (d <= N);
      h = exp(-conj(w) A^+) b, cut at M terms: h_{k+j} += b_k T_j(k), j < M.
    G(r) = sum_n (|h_n| + rho H_n) e_n(r) + (1 + rho) B(r) |x|^M e^|x| / M!:
      - H and B are the same sums over |c| with |w|, which bound every
        rounding error: rho = 16 (N + M + 2) eps covers the T recurrences'
        d steps and the sums (Higham, Accuracy and Stability of Numerical
        Algorithms, ch. 3);
      - the last term is exp's Lagrange remainder, |x| = |mu| r / hbar,
        times B(r) >= |f(mu + u)|, so the cut costs no rigour.
    M is picked so that the remainder is far below rounding out to r =
    `reach`; it is at most _EXP_TERMS_MAX.  For mu = 0, g = f and G is the
    coefficient majorant A(r) = sum_n |c_n| e_n(r).
    """
    hbar = f.hbar
    c = f.coeffs
    if mu == 0:
        absolute = FockVector(np.abs(c), hbar)
        return f.truncation, lambda r: absolute.evaluate(r).real
    n_top = f.truncation
    w = mu / math.sqrt(hbar)
    reach_x = abs(mu) * reach / hbar
    n_exp = (min(_EXP_TERMS_MAX, math.ceil(2.0 * math.e * reach_x) + 16)
             if math.isfinite(reach_x) else _EXP_TERMS_MAX)
    roots = np.sqrt(np.arange(n_top + n_exp + 1, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        # the translation, and its absolute twin
        shifted, shifted_abs = c.copy(), np.abs(c)
        t, t_abs = np.ones(n_top + 1, dtype=complex), np.ones(n_top + 1)
        for d in range(1, n_top + 1):
            t = t[:-1] * (w / d) * roots[d:n_top + 1]
            t_abs = t_abs[:-1] * (abs(w) / d) * roots[d:n_top + 1]
            shifted[:n_top + 1 - d] += c[d:] * t
            shifted_abs[:n_top + 1 - d] += np.abs(c[d:]) * t_abs
        # the exponential factor's first n_exp terms
        h = np.zeros(n_top + n_exp, dtype=complex)
        h_abs = np.zeros(n_top + n_exp)
        h[:n_top + 1], h_abs[:n_top + 1] = shifted, shifted_abs
        s, s_abs = np.ones(n_top + 1, dtype=complex), np.ones(n_top + 1)
        for j in range(1, n_exp):
            s = s * (-np.conj(w) / j) * roots[j:j + n_top + 1]
            s_abs = s_abs * (abs(w) / j) * roots[j:j + n_top + 1]
            h[j:j + n_top + 1] += shifted * s
            h_abs[j:j + n_top + 1] += shifted_abs * s_abs
        rho = 16.0 * (n_top + n_exp + 2) * np.finfo(float).eps
        series = np.abs(h) + rho * h_abs
        translated = (1.0 + rho) * shifted_abs
    if not (np.all(np.isfinite(series)) and np.all(np.isfinite(translated))):
        raise SamplerError("the shifted majorant's coefficients overflow")
    series = FockVector(series, hbar)
    translated = FockVector(translated, hbar)
    log_factorial = math.lgamma(n_exp + 1)

    def majorant(r):
        x = abs(mu) * np.asarray(r, dtype=float) / hbar
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            remainder = np.exp(n_exp * np.log(x) + x - log_factorial)
            return (series.evaluate(r).real
                    + translated.evaluate(r).real * remainder)

    return n_top + n_exp - 1, majorant


def _rejection_sample(f: FockVector, n_samples: int, seed, proposal_scale: float):
    """Rejection-sample z from |f(z)|^2 exp(-|z|^2/hbar)/(pi hbar), as a
    stream.

    The proposal is z = mu + u, centred on the cloud's mean mu
    (`cloud_centre`), with u the Gaussian widened by `proposal_scale` = s
    in variance.  With kappa = (1 - 1/s)/hbar and g(u) = f(mu + u)
    exp(-conj(mu) u / hbar), the density over the proposal's is exactly
        s |g(u)|^2 exp(-|mu|^2/hbar - kappa |u|^2),
    and G(|u|) >= |g(u)| (`_shifted_majorant`) bounds it rigorously, so the
    sampler is exact (Robert & Casella, Monte Carlo Statistical Methods,
    sec. 2.3).  For a coherent state g is nearly constant, so acceptance is
    near 1/(1.05 s) wherever the cloud sits; for mu = 0, g = f and the
    draws are those of the uncentred Gaussian.

    Yields (block, rate): the n_samples accepted draws in order, in blocks
    of `bath.SAMPLE_BLOCK` (the last one shorter), so block boundaries fall
    at the same particle indices whatever the proposal chunks; and the
    acceptance rate, accepted over proposed, over the chunks drawn so far.
    With the last block that is the run's rate: draws accepted past
    `n_samples` in the last chunk count too, since they say the same about
    the proposal.  Every block is a view of one buffer, which the next
    block overwrites; the caller may move it in place.  An efficiency
    collapse (< 1e-3) raises SamplerError instead of looping forever.

    Memory: one block buffer, one complex proposal buffer and one boolean
    acceptance mask, sized to the first and largest chunk (at least 10 000
    and 2 (n_samples - filled) points but no more than _PROPOSAL_CHUNK),
    into which each chunk's real, then imaginary, parts are drawn (the same
    bits as a + 1j b).  The shift, density, ratio and uniforms are formed,
    and the accepted points picked, over `bargmann.point_blocks`, so their
    temporaries stay a few hundred KiB; only the RNG's normal draws span a
    chunk.  Nothing grows with n_samples.
    """
    if not f.is_normalized(1e-9):
        raise ValueError("f must be normalized for density sampling")
    f = _trimmed(f)
    s = float(proposal_scale)
    hbar = f.hbar
    kappa = (1.0 - 1.0 / s) / hbar
    mu = cloud_centre(f)
    mu2 = abs(mu) ** 2

    def reach(degree):
        # past this radius every term of G^2 exp(-kappa r^2) decreases
        return (1.2 * (abs(mu) / (hbar * kappa) + math.sqrt(max(degree, 1) / kappa))
                + math.sqrt(hbar))

    degree, majorant = _shifted_majorant(f, mu, reach(f.truncation))
    r_grid = np.linspace(0.0, reach(degree), 4097)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio_grid = s * majorant(r_grid) ** 2 * np.exp(-mu2 / hbar - kappa * r_grid ** 2)
    bound = 1.05 * float(np.max(ratio_grid))
    if not math.isfinite(bound):
        raise SamplerError("the dominating bound is not finite")
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(s * hbar / 2.0)
    largest = min(_PROPOSAL_CHUNK, max(10_000, 2 * n_samples))
    proposals = np.empty(largest, dtype=complex)
    accepts = np.empty(largest, dtype=bool)
    out = np.empty(min(n_samples, SAMPLE_BLOCK), dtype=complex)
    filled = 0      # draws handed on or held in `out`
    held = 0        # draws held in `out`
    accepted = 0
    proposed = 0
    while filled < n_samples:
        chunk = min(_PROPOSAL_CHUNK, max(10_000, 2 * (n_samples - filled)))
        z, accept = proposals[:chunk], accepts[:chunk]
        z.real = rng.normal(mu.real, sigma, chunk)
        z.imag = rng.normal(mu.imag, sigma, chunk)
        for block in point_blocks(chunk):
            zb = z[block]
            u = zb - mu
            # |mu|^2 + 2 Re(conj(mu) u) = |z|^2 - |u|^2, 0 when mu = 0
            shift = mu2 + 2.0 * (mu.real * u.real + mu.imag * u.imag)
            dens = np.abs(f.evaluate(zb)) ** 2
            ratio = s * dens * np.exp(-shift / hbar - kappa * np.abs(u) ** 2)
            if float(np.max(ratio)) > bound:
                raise SamplerError(
                    "dominating bound violated; majorant grid too coarse")
            # one uniform a point, in order: the same draws as one call
            # over the whole chunk
            np.less(rng.uniform(0.0, bound, ratio.size), ratio,
                    out=accept[block])
        accepted += int(np.count_nonzero(accept))
        proposed += chunk
        if proposed >= 10_000 and accepted / proposed < 1e-3:
            raise SamplerError(
                f"rejection efficiency {accepted / proposed:.2e} below 1e-3"
            )
        for block in point_blocks(chunk):
            picked = z[block][accept[block]]
            while picked.size and filled < n_samples:
                take = min(picked.size, out.size - held, n_samples - filled)
                out[held:held + take] = picked[:take]
                picked = picked[take:]
                held += take
                filled += take
                if held == out.size or filled == n_samples:
                    yield out[:held], accepted / proposed
                    held = 0


# Leapfrog steps one ensemble run may take to build its interval maps.  A
# 2x2 step takes about 7 us (one x86_64 core), so the cap is about 7 s of
# stepping: a thousand times the 1026 steps of the default run (one period
# in 19 intervals of 54 steps), where --t-max 1e300 would ask for 1e302.
MAX_CLOUD_STEPS = 2 ** 20
# Particles one ensemble run may draw.  The cloud streams through buffers of
# `bath.SAMPLE_BLOCK` particles, so this bounds the run's length, not its
# memory: the default run (20 times) takes about 0.7 us a particle (one
# x86_64 core), so 2**23 particles take about 6 s and 1e9 would take about
# 12 min.
MAX_CLOUD_PARTICLES = 2 ** 23


@dataclass(frozen=True)
class EnsembleHistory:
    times: np.ndarray
    moments: list            # MomentReport per requested time
    acceptance_rate: float


def _interval_maps(params: OscillatorParams, times: np.ndarray, dt: float,
                   friction: float) -> list:
    """Per requested time, the 2x2 map of the leapfrog steps into it from
    the time before (from 0 for the first), or None where time does not
    advance.

    Each interval is cut into the fewest equal steps no longer than `dt`,
    and their total is capped at MAX_CLOUD_STEPS before a step is taken.
    The leapfrog is linear, so the steps compose to one map, whose columns
    are the two unit vectors stepped with hamilton_step."""
    plan, t_prev = [], 0.0
    for t in times:
        plan.append(max(1, math.ceil((t - t_prev) / dt - 1e-12))
                    if t > t_prev else 0)
        t_prev = t
    total = sum(plan)
    if total > MAX_CLOUD_STEPS:
        raise CapacityError(f"{total:.3g} leapfrog steps exceed the cap of "
                            f"{MAX_CLOUD_STEPS} per ensemble run")
    maps, t_prev = [], 0.0
    for t, n_sub in zip(times, plan):
        m = None
        if n_sub:
            h = (t - t_prev) / n_sub
            m = PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            for _ in range(n_sub):
                m = hamilton_step(m, params, h, friction)
        maps.append(m)
        t_prev = t
    return maps


def _move_cloud(z: np.ndarray, m: PhasePoint, scratch: np.ndarray) -> None:
    """Move the particles z in place by the interval map m.

    The map is linear, so it moves (Re z, Im z) = (q, p) / sqrt2 as it moves
    (q, p): x' = m00 x + m01 y and y' = m10 x + m11 y, each product rounded
    before the sum; y takes m11 y in place once x is read.  `scratch` holds
    (2, z.size) floats or more."""
    x, y = z.real, z.imag
    x_new, term = scratch[0, :z.size], scratch[1, :z.size]
    np.multiply(x, m.q[0], out=x_new)
    np.multiply(y, m.q[1], out=term)
    x_new += term
    np.multiply(x, m.p[0], out=term)
    y *= m.p[1]
    y += term
    x[...] = x_new


def ensemble_evolve(f: FockVector, params: OscillatorParams, times, n_samples: int,
                    seed, friction: float = 0.0, dt: float = None,
                    proposal_scale: float = 2.0) -> EnsembleHistory:
    """Draw a cloud from |f|^2 dmu and advance it classically under
    pdot = -w q - alpha p, alpha = `friction`.

    Before any draw, n_samples is capped at MAX_CLOUD_PARTICLES and the
    interval maps are built (`_interval_maps`, each interval in the fewest
    equal steps no longer than `dt`, their total capped at
    MAX_CLOUD_STEPS); each particle then moves once per interval by its map
    (the leapfrog's scheme, up to rounding).  Moment reports (mean z and
    |z|^2 with standard errors) are recorded at each requested time.
    Without friction, the exact law of the mean for a coherent state is
    hbar * conj(c) * exp(-i w t).

    Memory: the cloud is never whole.  The sampler hands on its draws in
    blocks of `bath.SAMPLE_BLOCK` particles in one reused buffer; each block
    moves in place through every interval map in turn (`_move_cloud`, via a
    (2, SAMPLE_BLOCK) scratch) and is folded, while still in cache, into
    the `bath.MomentSums` of each requested time.  The working set is a few
    MiB whatever n_samples is, and each report is `bath.moment_report` of
    the cloud at that time, float for float.
    """
    w = params.omega
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1d array")
    if dt is None:
        dt = (2.0 * math.pi / w) / 1024.0
    if not (np.all(np.isfinite(times)) and math.isfinite(dt)):
        raise FloatingPointError("requested times and step must be finite")
    if n_samples > MAX_CLOUD_PARTICLES:
        raise CapacityError(
            f"{n_samples} particles exceed the cap of {MAX_CLOUD_PARTICLES} "
            f"per ensemble run, which bounds its length (the cloud streams "
            f"in fixed blocks, so not its memory)")
    maps = _interval_maps(params, times, dt, friction)
    sums = [MomentSums() for _ in maps]
    scratch = np.empty((2, min(n_samples, SAMPLE_BLOCK)))
    for block, efficiency in _rejection_sample(f, n_samples, seed,
                                               proposal_scale):
        for m, moments in zip(maps, sums):
            if m is not None:
                _move_cloud(block, m, scratch)
            moments.add(block)
    return EnsembleHistory(times=times,
                           moments=[moments.report() for moments in sums],
                           acceptance_rate=efficiency)
