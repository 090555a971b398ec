"""Thermal-bath statistics: sample moments, the partition-derived action
scale, constrained variations, the coherent tilt and the sphere map.

The functions return plain numbers, matrices and draws; the tilt and the
sphere map return their samples, and the CLI runners compute the moments
and Kolmogorov-Smirnov distances their checks measure.

The bath is a harmonic oscillator ensemble at inverse temperature beta; in
rescaled variables the Gibbs weight exp(-beta w (q^2+p^2)/2) is an isotropic
Gaussian whose per-component variance is hbar = 1/(beta w), and the phase
volume swept by one quantum of the ensemble is h = 2 pi hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BathParams",
    "MomentReport",
    "moment_report",
    "partition_estimate",
    "symplectic_generator",
    "random_antisymmetric",
    "generator_defect",
    "gibbs_first_order_defect",
    "tilt_measure",
    "sphere_pushforward_check",
    "ks_statistic",
]


@dataclass(frozen=True)
class BathParams:
    """Inverse temperature and oscillator frequency; hbar = 1/(beta*omega)."""

    beta: float
    omega: float

    @property
    def hbar(self) -> float:
        return 1.0 / (self.beta * self.omega)

    @property
    def h(self) -> float:
        return 2.0 * math.pi / (self.beta * self.omega)


@dataclass(frozen=True)
class MomentReport:
    """Low moments of a complex sample with standard errors."""

    mean: complex
    mean_se: tuple
    abs2_mean: float
    abs2_se: float


# points per block of the second pass: as in `bargmann`'s point kernels,
# 4096 values keep a block's buffers in L2 cache, and no buffer grows with
# the sample
_MOMENT_BLOCK = 4096


def moment_report(z: np.ndarray) -> MomentReport:
    """Means of z and |z|^2 with their standard errors.

    Two passes: the sums of z and |z|^2 over the whole sample, which need
    no temporary, then the squared deviations from those means (the sample
    variances with n - 1), block by block through buffers of _MOMENT_BLOCK
    points."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    n = z.size
    mean = complex(np.sum(z)) / n
    abs2_mean = float(np.vdot(z, z).real) / n
    dev = np.empty(min(n, _MOMENT_BLOCK), dtype=complex)
    abs2 = np.empty(dev.size)
    squares = np.zeros(3)
    for lo in range(0, n, _MOMENT_BLOCK):
        block = z[lo:lo + _MOMENT_BLOCK]
        d, a = dev[:block.size], abs2[:block.size]
        np.subtract(block, mean, out=d)
        np.multiply(block.real, block.real, out=a)
        a += block.imag * block.imag
        a -= abs2_mean
        squares += (np.dot(d.real, d.real), np.dot(d.imag, d.imag),
                    np.dot(a, a))
    se = np.sqrt(squares / (n - 1) / n)
    return MomentReport(
        mean=mean,
        mean_se=(float(se[0]), float(se[1])),
        abs2_mean=abs2_mean,
        abs2_se=float(se[2]),
    )


# -- partition function ------------------------------------------------------

def _energy(a: np.ndarray, x: np.ndarray):
    """H = (1/2) x^T A x, summed term by term over the nonzero entries of A
    in row-major order; x may carry a trailing axis of points."""
    total = 0.0
    for i, j in zip(*np.nonzero(a)):
        total = total + (0.5 * a[i, j]) * (x[i] * x[j])
    return total


def partition_estimate(a: np.ndarray, beta: float, method: str = "analytic",
                       samples: int = 100_000, seed=None,
                       proposal_scale: float = 1.5) -> tuple:
    """(Z, h, stderr of h): Z = integral exp(-beta H) over phase space for
    H = (1/2) x^T A x with A positive definite and 2n x 2n, and the action
    cell h = Z^(1/n) over the n oscillator pairs.

    "analytic" uses the Gaussian determinant formula.  "montecarlo" importance
    samples with a Gaussian proposal shaped by the quadratic form (scaled by
    `proposal_scale`); the integrand is summed term by term from A, without
    the determinant, so the estimate is an independent check of the closed
    form.
    """
    d = a.shape[0]
    n_pairs = d // 2
    if method == "analytic":
        z_val = (2.0 * math.pi / beta) ** n_pairs / math.sqrt(np.linalg.det(a))
        return z_val, z_val ** (1.0 / n_pairs), 0.0
    if method == "montecarlo":
        rng = np.random.default_rng(seed)
        cov = proposal_scale ** 2 * np.linalg.inv(beta * a)
        chol = np.linalg.cholesky(cov)
        log_norm = 0.5 * d * math.log(2.0 * math.pi) + float(
            np.sum(np.log(np.diag(chol)))
        )
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < samples:
            chunk = min(200_000, samples - done)
            xi = rng.standard_normal((d, chunk))
            x = chol @ xi
            h_vals = _energy(a, x)
            logw = -beta * h_vals + 0.5 * np.sum(xi ** 2, axis=0) + log_norm
            w = np.exp(logw)
            total += float(np.sum(w))
            total_sq += float(np.sum(w ** 2))
            done += chunk
        z_val = total / samples
        var = max(total_sq / samples - z_val ** 2, 0.0)
        se_z = math.sqrt(var / samples)
        h = z_val ** (1.0 / n_pairs)
        se_h = se_z * h / (n_pairs * z_val)
        return z_val, h, se_h
    raise ValueError(f"unknown method {method!r}")


# -- constrained variations --------------------------------------------------

# A generator is an antisymmetric matrix Omega: x -> x + Omega grad(H) dt
# preserves H to first order.

def symplectic_generator(n_pairs: int) -> np.ndarray:
    """The block symplectic J: (q, p) -> (p, -q) pairwise."""
    m = np.zeros((2 * n_pairs, 2 * n_pairs))
    for k in range(n_pairs):
        m[2 * k, 2 * k + 1] = 1.0
        m[2 * k + 1, 2 * k] = -1.0
    return m


def random_antisymmetric(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The antisymmetric part of a matrix of standard normal entries."""
    m = rng.standard_normal((dim, dim))
    return (m - m.T) / 2.0


def generator_defect(x, a: np.ndarray, generator: np.ndarray) -> float:
    """|grad H . Omega grad H| at x for H = (1/2) x^T A x: the first-order
    energy change along the generated flow, zero for an antisymmetric Omega."""
    grad = a @ x
    return abs(float(grad @ (generator @ grad)))


def gibbs_first_order_defect(x, a: np.ndarray, generator: np.ndarray,
                             dts) -> np.ndarray:
    """|H(x + Omega grad H * dt) - H(x)| over the dt values (expected O(dt^2))."""
    direction = generator @ (a @ x)
    h0 = _energy(a, x)
    return np.array([abs(_energy(a, x + direction * dt) - h0)
                     for dt in dts])


# -- tilted measure ----------------------------------------------------------

def tilt_measure(bath: BathParams, c: complex, n_samples: int, seed) -> np.ndarray:
    """Draws z from the measure tilted by |exp(c z)|^2, the shifted Gaussian
    exp(-|z - hbar conj(c)|^2/hbar): mean hbar*conj(c), covariance unchanged
    from equilibrium (hbar/2 per component, uncorrelated)."""
    rng = np.random.default_rng(seed)
    hbar = bath.hbar
    center = hbar * np.conj(complex(c))
    sigma = math.sqrt(hbar / 2.0)
    return center + rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)


# -- sphere pushforward ------------------------------------------------------

def ks_statistic(cdf_values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance from the model CDF at each draw:
    D = max over the sorted values of i/n - F_(i) and F_(i) - (i-1)/n."""
    f = np.sort(cdf_values)
    n = f.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def sphere_pushforward_check(radius: float, beta: float, n_samples: int,
                             seed) -> tuple:
    """Push uniform area on the sphere of radius R through the map
    |z|^2 = -ln(2 beta R^2 sin^2(theta/2))/beta, arg z = phi; returns the
    draws (t = |z|^2, phi) and t_min, the smallest attainable |z|^2.

    Uniform area in (phi, u = sin^2(theta/2)) is uniform in both; on the
    admissible cap u <= u_max, where the log stays >= 0, the radial image t
    is exactly an exponential of rate beta shifted to start at t_min, and
    arg z stays uniform.  A radius outside (0, inf) is a float that left
    the range of the flags it was derived from.
    """
    if not 0.0 < radius < math.inf:
        raise FloatingPointError(f"radius {radius:g} must be positive and finite")
    rng = np.random.default_rng(seed)
    u_max = min(1.0, 1.0 / (2.0 * beta * radius ** 2))
    t_min = max(0.0, -math.log(2.0 * beta * radius ** 2) / beta)
    u = rng.uniform(0.0, u_max, n_samples)
    # guard the measure-zero event u == 0 (log divergence)
    u = np.maximum(u, np.finfo(float).tiny)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    t = -np.log(2.0 * beta * radius ** 2 * u) / beta
    return t, phi, t_min
