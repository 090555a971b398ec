"""Time evolution of oscillator states, classical and quantum, side by side.

The same rotation shows up four ways: exact phase multiplication on basis
coefficients, transport of boundary profiles along circles |z| = const,
the diagonal Schrodinger propagator, and rigid rotation of classical
ensembles.  Keeping all four routes independent is the point -- their
agreement is what the harness checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bargmann import FockVector, hamiltonian_levels
from .errors import (
    POINT_BLOCK, SAMPLE_BLOCK, CapacityError, SamplerError, TruncationError,
    block_width, check_finite, check_samples, check_steps, figure,
    point_blocks, step_count)
from .phasespace import leapfrog_map

__all__ = [
    "EnsembleHistory",
    "profile_from_fock",
    "l2_grid_distance",
    "transport_solve",
    "evolve_exact",
    "schrodinger_evolve",
    "damped_flow",
    "check_cloud",
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


def transport_solve(values: np.ndarray, t: float, omega: float,
                    scheme: str = "spectral", dt: float = None) -> np.ndarray:
    """Advance the transport equation df/dt + w df/dphi = 0, w = `omega`, on
    the circle, from the profile `values` at uniform angles.

    The exact solution is rigid rotation of the profile by w t.  "spectral"
    applies the per-harmonic phases exp(-i m w t) (exact for band-limited
    data); "upwind" runs the first-order finite-difference scheme with step
    `dt` and enforces the CFL bound w dt <= dphi.
    """
    w = omega
    if scheme == "spectral":
        modes = np.fft.fftfreq(values.size, d=1.0 / values.size)
        return np.fft.ifft(np.fft.fft(values) * np.exp(-1j * modes * w * t))
    if scheme == "upwind":
        if dt is None or dt <= 0:
            raise ValueError("upwind scheme requires dt > 0")
        if t == 0:
            return values.copy()
        dphi = 2.0 * np.pi / values.size
        n_steps = step_count(t, dt, f"upwind step count t/dt = {t:g}/{dt:g}")
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


def evolve_exact(f: FockVector, t: float, omega: float) -> FockVector:
    """Free oscillator evolution: c_n -> c_n exp(-i w n t), w = `omega`."""
    n = np.arange(f.coeffs.size)
    return FockVector(f.coeffs * np.exp(-1j * omega * n * t), f.hbar)


def schrodinger_evolve(f: FockVector, t: float, ordering: str,
                       omega: float) -> FockVector:
    """Evolve with the diagonal Hamiltonian: c_n -> c_n exp(-i E_n t / hbar).

    Normal ordering reproduces evolve_exact; symmetric ordering differs by the
    global zero-point phase exp(-i w t / 2) only.  A subnormal hbar, whose
    reciprocal the complex division by hbar forms, is refused by name.
    """
    check_finite(1.0 / float(f.hbar), "phase rate 1/hbar")
    energies = hamiltonian_levels(ordering, omega, f.hbar, f.truncation)
    return FockVector(f.coeffs * np.exp(-1j * energies * t / f.hbar), f.hbar)


def damped_flow(omega: float, friction: float, t) -> np.ndarray:
    """The exact flow of qdot = w p, pdot = -w q - alpha p, w = `omega` and
    alpha = `friction` below 2 w (underdamped): x(t) = M(t) x(0) for a
    phase point x = (q, p), with A = ((0, w), (-w, -alpha)) and
        M(t) = exp(-alpha t/2) [cos(W t) I + sin(W t)/W (A + alpha/2 I)],
    W = w sqrt(1 - (alpha/2w)^2), since (A + alpha/2 I)^2 = -W^2 I.  The
    envelope times cos(W t) and sin(W t) are the parts of one complex
    exponential exp((-alpha/2 + i W) t): libm's exp times its cos and sin.
    Returns an array of shape t.shape + (2, 2).
    """
    t = np.asarray(t, dtype=float)
    # w * w underflows for tiny omega; the factored form does not
    big_w = omega * math.sqrt(1.0 - (0.5 * friction / omega) ** 2)
    shifted = np.array([[0.5 * friction, omega], [-omega, -0.5 * friction]])
    rotation = np.exp((-0.5 * friction + 1j * big_w) * t)[..., None, None]
    return rotation.real * np.eye(2) + (rotation.imag / big_w) * shifted


# -- ensembles ----------------------------------------------------------------

# Proposals one rejection chunk draws at most: 2^16 complex points are 1 MiB,
# sixteen point blocks, so a chunk's working arrays stay a few MiB whatever
# the number of samples.  Not a block width: the chunks fix the draws.
_PROPOSAL_CHUNK = 2 ** 16
# The proposal's variance over the cloud's, s: kappa = (1 - 1/s)/hbar stays
# well above 0, and the centred route accepts about 0.477 at c = 0.5 and 1.2.
_PROPOSAL_VARIANCE = 2.0
# Terms of exp(-conj(mu) u / hbar) the shifted majorant keeps at most; past
# them its Lagrange remainder still bounds the rest, only more loosely.
_EXP_TERMS_MAX = 4096


def _trimmed(f: FockVector) -> FockVector:
    """f without its trailing exact-zero coefficients: Horner's rule over
    them is an exact no-op, and the shifted majorant costs O(N^2)."""
    top = int(np.flatnonzero(f.coeffs)[-1]) + 1
    if top == f.coeffs.size:
        return f
    return FockVector(f.coeffs[:top], f.hbar)


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


def _rejection_sample(f: FockVector, n_samples: int, seed):
    """Rejection-sample z from |f(z)|^2 exp(-|z|^2/hbar)/(pi hbar), as a
    stream.

    The proposal is z = mu + u, centred on the cloud's mean mu
    (`cloud_centre`), with u the Gaussian widened by the fixed s = 2 in
    variance.  With kappa = (1 - 1/s)/hbar and g(u) = f(mu + u)
    exp(-conj(mu) u / hbar), the density over the proposal's is exactly
        s |g(u)|^2 exp(-|mu|^2/hbar - kappa |u|^2),
    and G(|u|) >= |g(u)| (`_shifted_majorant`) bounds it rigorously, so the
    sampler is exact (Robert & Casella, Monte Carlo Statistical Methods,
    sec. 2.3).  For a coherent state g is nearly constant, so acceptance is
    near 1/(1.05 s) wherever the cloud sits; for mu = 0, g = f and the
    draws are those of the uncentred Gaussian.

    Yields (block, rate): the n_samples accepted draws in order, in blocks
    of `errors.SAMPLE_BLOCK` (the last one shorter), so block boundaries fall
    at the same particle indices whatever the proposal chunks; and the
    acceptance rate, accepted over proposed, over the chunks drawn so far.
    With the last block that is the run's rate: draws accepted past
    `n_samples` in the last chunk count too, since they say the same about
    the proposal.  Every block is a view of one buffer, which the next
    block overwrites; the caller may move it in place.  The density over
    the proposal's has mean 1 under the proposal, so the expected
    acceptance rate is 1/bound: a run where that is below 1e-3 raises
    SamplerError before any draw, and one whose observed rate collapses
    below it after 10 000 proposals raises it instead of looping forever.

    Memory: one block buffer of SAMPLE_BLOCK draws, one complex proposal
    buffer and one boolean acceptance mask, sized to the first and largest
    chunk (at least 10 000 and 2 (n_samples - filled) points but no more
    than _PROPOSAL_CHUNK), into which each chunk's real, then imaginary,
    parts are drawn block by block (the same bits as a + 1j b drawn
    whole).  The normals, shift, density, ratio and uniforms are formed,
    and the accepted points picked, over `errors.point_blocks`, so their
    temporaries stay a few hundred KiB.  Nothing grows with n_samples.
    """
    if not f.is_normalized(1e-9):
        raise ValueError("f must be normalized for density sampling")
    f = _trimmed(f)
    s = _PROPOSAL_VARIANCE
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
    # the ratio's mean under the proposal is 1, so a proposal is accepted
    # with probability 1/bound exactly: below the floor, no draw is worth it
    # (a bound of 0, all ratios underflowed, is left to the observed rate)
    if bound > 1e3:
        raise SamplerError(
            f"expected rejection efficiency 1/bound = {1.0 / bound:.2e} "
            f"below 1e-3")
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
        for part, centre in ((z.real, mu.real), (z.imag, mu.imag)):
            for block in point_blocks(chunk):
                piece = part[block]
                piece[...] = rng.normal(centre, sigma, piece.size)
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


# Requested times x particle blocks one ensemble run may fold: every block
# of `errors.SAMPLE_BLOCK` particles is folded into each requested time's
# moment sums, whether or not time advances there.  An `ensemble` run
# spends about 0.12 ms a fold on a block of 1000 particles and 0.85 ms on a
# full block, drawing, moving and its report row included (one x86_64
# core), so the cap is about 1 s of one-block folds and 7 s of full ones;
# the run at the particle cap folds 5120 blocks at the default 20 times.
MAX_CLOUD_FOLDS = 2 ** 13


def check_cloud(n_times: int, n_samples: int) -> None:
    """Refuse, before its times are built or a particle drawn, an ensemble
    run of more than `errors.MAX_SAMPLES` samples, then one whose
    `n_times` requested times x particle blocks are over MAX_CLOUD_FOLDS."""
    check_samples(n_samples, "the ensemble cloud")
    blocks = -(-n_samples // SAMPLE_BLOCK)
    if n_times * blocks > MAX_CLOUD_FOLDS:
        raise CapacityError(
            f"{figure(n_times)} times x {blocks} blocks of {SAMPLE_BLOCK} "
            f"particles are {figure(n_times * blocks)} moment folds, over "
            f"the cap of {MAX_CLOUD_FOLDS} per ensemble run")


@dataclass(frozen=True)
class EnsembleHistory:
    times: np.ndarray
    moments: list            # MomentReport per requested time
    acceptance_rate: float


def _interval_maps(omega: float, times: np.ndarray, dt: float,
                   friction: float) -> list:
    """Per requested time, the 2x2 map of the leapfrog steps into it from
    the time before (from 0 for the first), or None where time does not
    advance.

    Each interval is cut into `errors.step_count` equal steps no longer
    than `dt`, their total refused past its cap by `errors.check_steps`
    before a step is taken.  The leapfrog is linear, so an interval's steps
    compose to one map, `phasespace.leapfrog_map`: ((m00, m01), (m10,
    m11)), its rows, as floats."""
    plan, t_prev = [], 0.0
    for t in times.tolist():
        count = (step_count(t - t_prev, dt,
                            f"step count interval/dt = {t - t_prev:g}/{dt:g}")
                 if t > t_prev else 0)
        plan.append((count, (t - t_prev) / count if count else 0.0))
        t_prev = t
    check_steps(sum(count for count, _ in plan),
                f"the ensemble's {len(plan)} intervals at dt = {dt:g}")
    return [leapfrog_map(omega, h, count, friction) if count else None
            for count, h in plan]


def _move_cloud(z: np.ndarray, m: tuple, scratch: np.ndarray) -> None:
    """Move the particles z in place by the interval map m, a point pass
    over `errors.point_blocks` of the width of `scratch`, (2, width) floats.

    The map is linear, so it moves (Re z, Im z) = (q, p) / sqrt2 as it moves
    (q, p): x' = m00 x + m01 y and y' = m10 x + m11 y, each product rounded
    before the sum; y takes m11 y in place once x is read.  Every particle
    takes the same operations whatever the width, so a block's floats are
    those of the whole cloud moved at once."""
    (m00, m01), (m10, m11) = m
    for block in point_blocks(z.size, scratch.shape[1]):
        x, y = z.real[block], z.imag[block]
        x_new, term = scratch[0, :x.size], scratch[1, :x.size]
        np.multiply(x, m00, out=x_new)
        np.multiply(y, m01, out=term)
        x_new += term
        np.multiply(x, m10, out=term)
        y *= m11
        y += term
        x[...] = x_new


def ensemble_evolve(f: FockVector, omega: float, times, n_samples: int,
                    seed, dt: float, friction: float = 0.0) -> EnsembleHistory:
    """Draw a cloud from |f|^2 dmu and advance it classically under
    qdot = w p, pdot = -w q - alpha p, w = `omega` and alpha = `friction`.

    Before any draw, `check_cloud` caps n_samples at `errors.MAX_SAMPLES`
    and the requested times x particle blocks at MAX_CLOUD_FOLDS, and the
    interval maps are built (`_interval_maps`, each interval in the fewest
    equal steps no longer than `dt`, their total capped at
    `errors.MAX_STEPS`); each particle then moves once per interval by its map
    (the leapfrog's scheme, up to rounding).  Moment reports (mean z and
    |z|^2 with standard errors) are recorded at each requested time.
    Without friction, the exact law of the mean for a coherent state is
    hbar * conj(c) * exp(-i w t).

    Memory: the cloud is never whole.  The sampler hands on its draws in
    blocks of `errors.SAMPLE_BLOCK` particles in one reused buffer; each block
    moves in place through every interval map in turn, a point pass
    (`_move_cloud`, via a (2, min(POINT_BLOCK, block_width(2))) scratch of
    64 KiB), and is folded, while still in cache, into the
    `bath.MomentSums` of each requested time.  The working set is about
    2 MiB whatever n_samples is, and each report is `bath.moment_report` of
    the cloud at that time, float for float.
    """
    # imported here, not at the top: of the runs that load this module,
    # only `ensemble` draws a cloud, and `evolve` and `damp` never need bath
    from .bath import MomentSums

    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1d array")
    if not (np.all(np.isfinite(times)) and math.isfinite(dt)):
        raise FloatingPointError("requested times and step must be finite")
    check_cloud(times.size, n_samples)
    maps = _interval_maps(omega, times, dt, friction)
    sums = [MomentSums() for _ in maps]
    # a point pass: x' and m10 x, two floats a point
    scratch = np.empty((2, min(n_samples, POINT_BLOCK, block_width(2))))
    for block, efficiency in _rejection_sample(f, n_samples, seed):
        for m, moments in zip(maps, sums):
            if m is not None:
                _move_cloud(block, m, scratch)
            moments.add(block)
    return EnsembleHistory(times=times,
                           moments=[moments.report() for moments in sums],
                           acceptance_rate=efficiency)
