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

from .bargmann import FockVector, hamiltonian_matrix
from .bath import moment_report
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

def _rejection_sample(f: FockVector, n_samples: int, seed, proposal_scale: float):
    """Rejection-sample z from |f(z)|^2 exp(-|z|^2/hbar)/(pi hbar).

    The proposal is the Gaussian widened by `proposal_scale` in variance; the
    acceptance bound comes from the coefficient majorant A(|z|), which
    dominates |f| rigorously, so the sampler is exact.  Returns the draws and
    the acceptance rate, accepted over proposed: draws accepted past
    `n_samples` in the last chunk count too, since they say the same about
    the proposal.  An efficiency collapse (< 1e-3) raises SamplerError
    instead of looping forever.

    Memory: each chunk holds its proposals and their densities, at least
    10 000 and 2 (n_samples - filled) points; `FockVector.evaluate` sums the
    density's series by Horner's rule in its own output, block by block, so
    evaluating it adds one complex value per proposal and no working arrays.
    """
    if not f.is_normalized(1e-9):
        raise ValueError("f must be normalized for density sampling")
    s = float(proposal_scale)
    hbar = f.hbar
    kappa = (1.0 - 1.0 / s) / hbar
    n_top = f.truncation
    r_max = 1.2 * math.sqrt(max(n_top, 1) / kappa) + math.sqrt(hbar)
    r_grid = np.linspace(0.0, r_max, 4097)
    # A(r) = sum |c_n| e_n(r) >= |f(z)| on the circle |z| = r
    majorant = FockVector(np.abs(f.coeffs), hbar).evaluate(r_grid).real
    ratio_grid = s * majorant ** 2 * np.exp(-kappa * r_grid ** 2)
    bound = 1.05 * float(np.max(ratio_grid))
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(s * hbar / 2.0)
    out = np.empty(n_samples, dtype=complex)
    filled = 0
    accepted = 0
    proposed = 0
    while filled < n_samples:
        chunk = max(10_000, 2 * (n_samples - filled))
        z = rng.normal(0.0, sigma, chunk) + 1j * rng.normal(0.0, sigma, chunk)
        dens = np.abs(f.evaluate(z)) ** 2
        ratio = s * dens * np.exp(-kappa * np.abs(z) ** 2)
        if float(np.max(ratio)) > bound:
            raise SamplerError("dominating bound violated; majorant grid too coarse")
        accept = rng.uniform(0.0, bound, chunk) < ratio
        picked = z[accept]
        take = min(picked.size, n_samples - filled)
        out[filled:filled + take] = picked[:take]
        filled += take
        accepted += picked.size
        proposed += chunk
        if proposed >= 10_000 and accepted / proposed < 1e-3:
            raise SamplerError(
                f"rejection efficiency {accepted / proposed:.2e} below 1e-3"
            )
    return out, accepted / proposed


# Leapfrog steps one ensemble run may take to build its interval maps.  A
# 2x2 step takes about 7 us (one x86_64 core), so the cap is about 7 s of
# stepping: a thousand times the 1026 steps of the default run (one period
# in 19 intervals of 54 steps), where --t-max 1e300 would ask for 1e302.
MAX_CLOUD_STEPS = 2 ** 20


@dataclass(frozen=True)
class EnsembleHistory:
    times: np.ndarray
    moments: list            # MomentReport per requested time
    final_z: np.ndarray
    acceptance_rate: float


def ensemble_evolve(f: FockVector, params: OscillatorParams, times, n_samples: int,
                    seed, friction: float = 0.0, dt: float = None,
                    proposal_scale: float = 2.0) -> EnsembleHistory:
    """Draw a cloud from |f|^2 dmu and advance it classically under
    pdot = -w q - alpha p, alpha = `friction`.

    Each interval between requested times is cut into the fewest equal
    steps no longer than `dt`; the total is capped at MAX_CLOUD_STEPS
    before any draw.  The leapfrog is linear, so those steps compose to one
    2x2 interval map, built by stepping the two unit vectors with
    hamilton_step; the cloud then moves once per interval by that map (the
    same scheme, up to rounding).  Moment reports (mean z and |z|^2 with
    standard errors) are recorded at each requested time.  Without
    friction, the exact law of the mean for a coherent state is
    hbar * conj(c) * exp(-i w t).
    """
    w = params.omega
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1d array")
    if dt is None:
        dt = (2.0 * math.pi / w) / 1024.0
    if not (np.all(np.isfinite(times)) and math.isfinite(dt)):
        raise FloatingPointError("requested times and step must be finite")
    # steps into each requested time: the fewest equal ones no longer than
    # dt, none where time does not advance
    plan, t_prev = [], 0.0
    for t in times:
        plan.append(max(1, math.ceil((t - t_prev) / dt - 1e-12))
                    if t > t_prev else 0)
        t_prev = t
    total = sum(plan)
    if total > MAX_CLOUD_STEPS:
        raise CapacityError(f"{total:.3g} leapfrog steps exceed the cap of "
                            f"{MAX_CLOUD_STEPS} per ensemble run")
    z0, efficiency = _rejection_sample(f, n_samples, seed, proposal_scale)
    x = PhasePoint(np.sqrt(2.0) * z0.real, np.sqrt(2.0) * z0.imag)
    reports = []
    t_prev = 0.0
    for t, n_sub in zip(times, plan):
        if n_sub:
            h = (t - t_prev) / n_sub
            # columns of the interval map: the unit vectors stepped n_sub times
            m = PhasePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            for _ in range(n_sub):
                m = hamilton_step(m, params, h, friction)
            x = PhasePoint(m.q[0] * x.q + m.q[1] * x.p,
                           m.p[0] * x.q + m.p[1] * x.p)
        t_prev = t
        z = (x.q + 1j * x.p) * (2.0 ** -0.5)
        reports.append(moment_report(z))
    return EnsembleHistory(times=times, moments=reports, final_z=z,
                           acceptance_rate=efficiency)
