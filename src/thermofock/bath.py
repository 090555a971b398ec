"""Thermal-bath statistics: sample moments, the partition-derived action
scale, constrained variations, the coherent tilt and the sphere map.

The bath is a harmonic oscillator ensemble at inverse temperature beta; in
rescaled variables the Gibbs weight exp(-beta w (q^2+p^2)/2) is an isotropic
Gaussian whose per-component variance is hbar = 1/(beta w), and the phase
volume swept by one quantum of the ensemble is h = 2 pi hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phasespace import PhasePolynomial

__all__ = [
    "BathParams",
    "MomentReport",
    "PlanckResult",
    "VariationGenerator",
    "TiltSample",
    "SphereParams",
    "SphereCheck",
    "moment_report",
    "quadratic_form_matrix",
    "partition_estimate",
    "generator_defect",
    "gibbs_first_order_defect",
    "random_antisymmetric",
    "tilt_measure",
    "sphere_pushforward_check",
    "ks_threshold_99",
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

    n_samples: int
    mean: complex
    mean_se: tuple
    abs2_mean: float
    abs2_se: float


def moment_report(z: np.ndarray) -> MomentReport:
    z = np.asarray(z)
    n = z.size
    a2 = np.abs(z) ** 2
    return MomentReport(
        n_samples=n,
        mean=complex(np.mean(z)),
        mean_se=(
            float(np.std(z.real, ddof=1) / math.sqrt(n)),
            float(np.std(z.imag, ddof=1) / math.sqrt(n)),
        ),
        abs2_mean=float(np.mean(a2)),
        abs2_se=float(np.std(a2, ddof=1) / math.sqrt(n)),
    )


# -- partition function ------------------------------------------------------

def quadratic_form_matrix(h_poly: PhasePolynomial) -> np.ndarray:
    """Extract A from H = (1/2) x^T A x; rejects anything non-quadratic,
    complex, or not positive definite."""
    d = len(h_poly.ring.variables)
    a = np.zeros((d, d))
    for expo, coeff in h_poly.terms():
        if sum(expo) != 2:
            raise ValueError("Hamiltonian must be purely quadratic")
        c = complex(coeff)
        if c.imag != 0:
            raise ValueError("Hamiltonian must have real coefficients")
        idx = [i for i, e in enumerate(expo) for _ in range(e)]
        i, j = idx
        if i == j:
            a[i, i] = 2.0 * c.real
        else:
            a[i, j] = c.real
            a[j, i] = c.real
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise ValueError("quadratic form is not positive definite") from None
    return a


@dataclass(frozen=True)
class PlanckResult:
    """Partition integral Z over n oscillators and the action cell h = Z^(1/n)."""

    z_value: float
    h: float
    stderr: float


def partition_estimate(h_poly: PhasePolynomial, beta: float, n_pairs: int,
                       method: str = "analytic", samples: int = 100_000,
                       seed=None, proposal_scale: float = 1.5) -> PlanckResult:
    """Z = integral exp(-beta H) over phase space, and h = Z^(1/n).

    "analytic" uses the Gaussian determinant formula.  "montecarlo" importance
    samples with a Gaussian proposal shaped by the quadratic form (scaled by
    `proposal_scale`); the integrand itself is evaluated through the
    polynomial, so the estimate is an independent check of the closed form.
    """
    a = quadratic_form_matrix(h_poly)
    d = a.shape[0]
    if d != 2 * n_pairs:
        raise ValueError(f"polynomial has {d} variables but n_pairs = {n_pairs}")
    if method == "analytic":
        z_val = (2.0 * math.pi / beta) ** n_pairs / math.sqrt(np.linalg.det(a))
        return PlanckResult(z_val, z_val ** (1.0 / n_pairs), 0.0)
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
        names = h_poly.ring.variables
        while done < samples:
            chunk = min(200_000, samples - done)
            xi = rng.standard_normal((d, chunk))
            x = chol @ xi
            h_vals = h_poly.evaluate_array(dict(zip(names, x))).real
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
        return PlanckResult(z_val, h, se_h)
    raise ValueError(f"unknown method {method!r}")


# -- constrained variations --------------------------------------------------

@dataclass(frozen=True, eq=False)
class VariationGenerator:
    """An antisymmetric generator Omega; x -> x + Omega grad(H) dt preserves H
    to first order.  Antisymmetry is checked exactly at construction."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("generator must be a square matrix")
        if not np.array_equal(m.T, -m):
            raise ValueError("generator must be exactly antisymmetric")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def standard(cls, n_pairs: int) -> "VariationGenerator":
        """The block symplectic J: (q, p) -> (p, -q) pairwise."""
        m = np.zeros((2 * n_pairs, 2 * n_pairs))
        for k in range(n_pairs):
            m[2 * k, 2 * k + 1] = 1.0
            m[2 * k + 1, 2 * k] = -1.0
        return cls(m)


def random_antisymmetric(dim: int, rng: np.random.Generator) -> VariationGenerator:
    """The antisymmetric part of a matrix of standard normal entries."""
    m = rng.standard_normal((dim, dim))
    return VariationGenerator((m - m.T) / 2.0)


def _gradient(h_poly: PhasePolynomial, x: np.ndarray) -> np.ndarray:
    grads = []
    for name in h_poly.ring.variables:
        val = h_poly.differentiate(name).evaluate(x)
        if val.imag != 0:
            raise ValueError("Hamiltonian must be real for its gradient")
        grads.append(val.real)
    return np.array(grads)


def generator_defect(x, h_poly: PhasePolynomial,
                     generator: VariationGenerator) -> float:
    """|grad H . Omega grad H| at x: the first-order energy change along the
    generated flow, zero for an antisymmetric Omega."""
    x = np.asarray(x, dtype=float)
    d = len(h_poly.ring.variables)
    if x.shape != (d,):
        raise ValueError(f"x must be a vector of length {d}")
    if generator.matrix.shape != (d, d):
        raise ValueError("generator dimension mismatch")
    grad = _gradient(h_poly, x)
    return abs(float(grad @ (generator.matrix @ grad)))


def gibbs_first_order_defect(x, h_poly: PhasePolynomial,
                             generator: VariationGenerator, dts) -> np.ndarray:
    """|H(x + Omega grad H * dt) - H(x)| over the dt values (expected O(dt^2))."""
    x = np.asarray(x, dtype=float)
    grad = _gradient(h_poly, x)
    direction = generator.matrix @ grad
    names = h_poly.ring.variables
    h0 = h_poly.evaluate(x).real
    out = []
    for dt in np.asarray(dts, dtype=float):
        moved = x + direction * dt
        out.append(abs(h_poly.evaluate(dict(zip(names, moved))).real - h0))
    return np.array(out)


# -- tilted measure ----------------------------------------------------------

@dataclass(frozen=True)
class TiltSample:
    """Moments of draws from the measure tilted by |exp(c z)|^2, a shifted
    Gaussian."""

    expected_mean: complex
    report: MomentReport
    var_real: float
    var_imag: float
    cov_real_imag: float
    var_se: float
    cov_se: float


def tilt_measure(bath: BathParams, c: complex, n_samples: int, seed) -> TiltSample:
    """Sample exp(-|z - hbar conj(c)|^2/hbar): mean hbar*conj(c), covariance
    unchanged from equilibrium (hbar/2 per component, uncorrelated)."""
    rng = np.random.default_rng(seed)
    hbar = bath.hbar
    center = hbar * np.conj(complex(c))
    sigma = math.sqrt(hbar / 2.0)
    z = center + rng.normal(0.0, sigma, n_samples) + 1j * rng.normal(0.0, sigma, n_samples)
    vr = float(np.var(z.real, ddof=1))
    vi = float(np.var(z.imag, ddof=1))
    cov = float(np.cov(z.real, z.imag, ddof=1)[0, 1])
    n = n_samples
    return TiltSample(
        expected_mean=complex(center),
        report=moment_report(z),
        var_real=vr,
        var_imag=vi,
        cov_real_imag=cov,
        var_se=float(max(vr, vi) * math.sqrt(2.0 / (n - 1))),
        cov_se=float(math.sqrt((vr * vi + cov ** 2) / (n - 1))),
    )


# -- sphere pushforward ------------------------------------------------------

@dataclass(frozen=True)
class SphereParams:
    """A sphere of radius R carrying uniform area measure, mapped to the
    z-plane by |z|^2 = -ln(2 beta R^2 sin^2(theta/2))/beta, arg z = phi."""

    radius: float
    beta: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius)):
            raise ValueError("radius must be positive and finite")

    @property
    def u_max(self) -> float:
        """Admissible cap in u = sin^2(theta/2): where the log stays >= 0."""
        return min(1.0, 1.0 / (2.0 * self.beta * self.radius ** 2))

    @property
    def t_min(self) -> float:
        """Smallest attainable |z|^2 under the map."""
        return max(0.0, -math.log(2.0 * self.beta * self.radius ** 2) / self.beta)

    @property
    def area(self) -> float:
        return 4.0 * math.pi * self.radius ** 2


@dataclass(frozen=True)
class SphereCheck:
    radial: np.ndarray          # sampled |z|^2 values
    angles: np.ndarray          # sampled arg z values
    ks_radial: float
    ks_angular: float
    threshold_99: float
    h_sphere: float
    t_min: float


def ks_threshold_99(n_samples: int) -> float:
    """Asymptotic 99% Kolmogorov-Smirnov critical value."""
    return 1.63 / math.sqrt(n_samples)


def _ks_statistic(cdf_values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance from the model CDF at each draw:
    D = max over the sorted values of i/n - F_(i) and F_(i) - (i-1)/n."""
    f = np.sort(cdf_values)
    n = f.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - f)
    d_minus = np.max(f - np.arange(0.0, n) / n)
    return float(max(d_plus, d_minus))


def sphere_pushforward_check(params: SphereParams, n_samples: int, seed) -> SphereCheck:
    """Push uniform sphere area through the map and test the z-plane law.

    Uniform area in (phi, u = sin^2(theta/2)) is uniform in both; on the
    admissible cap u <= u_max the radial image t = |z|^2 is exactly an
    exponential of rate beta shifted to start at t_min, and arg z stays
    uniform.  Both marginals are KS-tested against those laws.
    """
    rng = np.random.default_rng(seed)
    beta = params.beta
    u = rng.uniform(0.0, params.u_max, n_samples)
    # guard the measure-zero event u == 0 (log divergence)
    u = np.maximum(u, np.finfo(float).tiny)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    t = -np.log(2.0 * beta * params.radius ** 2 * u) / beta
    shifted = t - params.t_min
    ks_r = _ks_statistic(-np.expm1(-beta * shifted))
    ks_a = _ks_statistic(phi / (2.0 * math.pi))
    return SphereCheck(
        radial=t,
        angles=phi,
        ks_radial=ks_r,
        ks_angular=ks_a,
        threshold_99=ks_threshold_99(n_samples),
        h_sphere=params.area,
        t_min=params.t_min,
    )
