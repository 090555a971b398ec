"""Thermal-bath statistics: sample moments, the partition-derived action
scale, constrained variations, the coherent tilt and the sphere map.

The functions return plain numbers, matrices and draws; the tilt and the
sphere map return their samples, and the CLI runners compute the moments
and Kolmogorov-Smirnov distances their checks measure.  The sphere map
hands out its angles only on request, after its radial draws, so a runner
reduces one coordinate and drops it before the next is drawn.

The bath is a harmonic oscillator ensemble at inverse temperature beta; in
rescaled variables the Gibbs weight exp(-beta w (q^2+p^2)/2) is an isotropic
Gaussian whose per-component variance is hbar = 1/(beta w), and the phase
volume swept by one quantum of the ensemble is h = 2 pi hbar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    POINT_BLOCK, SAMPLE_BLOCK, block_width, check_capacity, check_finite,
    check_samples, point_blocks)

__all__ = [
    "BathParams",
    "MomentReport",
    "MomentSums",
    "moment_report",
    "partition_estimate",
    "symplectic_generator",
    "random_antisymmetric",
    "generator_defect",
    "defect_rounding_bound",
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
    """Low moments of a complex sample with standard errors, and the sample
    variances of Re z and Im z with their covariance (n - 1 divisor)."""

    mean: complex
    mean_se: tuple
    abs2_mean: float
    abs2_se: float
    var_re: float
    var_im: float
    cov: float


def _block_moments(z: np.ndarray):
    """(means, squares) of one block: the means of Re z, Im z and |z|^2,
    the sums of their squared deviations from those means, and the sum of
    the products of the Re z and Im z deviations.

    Two passes: the sums of z and |z|^2, then the squared deviations, all
    but the sum of z over sub-blocks of POINT_BLOCK points, so that their
    temporaries stay small.  Every sum is numpy's pairwise one and no BLAS
    call is made, so the moments do not depend on --threads."""
    n = z.size
    # a fixed stride, not point_blocks: it fixes the order of the sums
    blocks = [z[lo:lo + POINT_BLOCK] for lo in range(0, n, POINT_BLOCK)]

    def abs2(block):
        return block.real * block.real + block.imag * block.imag

    mean = complex(np.sum(z)) / n
    abs2_mean = sum(float(abs2(block).sum()) for block in blocks) / n
    squares = np.zeros(4)
    for block in blocks:
        d, a = block - mean, abs2(block) - abs2_mean
        squares += [float((x * y).sum()) for x, y in (
            (d.real, d.real), (d.imag, d.imag), (a, a), (d.real, d.imag))]
    return np.array([mean.real, mean.imag, abs2_mean]), squares


class MomentSums:
    """Running moments of a complex sample that arrives in blocks.

    Each block's means and squared deviations are taken in two passes
    (`_block_moments`), then merged into the running ones by the pairwise
    update of Chan, Golub and LeVeque (Am. Stat. 37 (1983) 242): with
    delta the difference of the two means, the mean moves by delta n_b / n
    and the squares gain delta^2 n_a n_b / n (the cross term delta_re
    delta_im n_a n_b / n).  The first block is taken as it is, so a sample
    of one block reads the two-pass floats exactly."""

    def __init__(self):
        self.count = 0
        self.means = np.zeros(3)       # Re z, Im z, |z|^2
        # their summed squared deviations, then the Re-Im cross products
        self.squares = np.zeros(4)

    def add(self, z: np.ndarray) -> None:
        means, squares = _block_moments(z)
        if not self.count:
            self.count, self.means, self.squares = z.size, means, squares
            return
        total = self.count + z.size
        delta = means - self.means
        self.squares += squares
        self.squares += (delta[[0, 1, 2, 0]] * delta[[0, 1, 2, 1]]
                         * (self.count * z.size / total))
        self.means += delta * (z.size / total)
        self.count = total

    def report(self) -> MomentReport:
        """Means of z and |z|^2 with their standard errors, and the
        variances and covariance of Re z and Im z (all with n - 1)."""
        n = self.count
        var = self.squares / (n - 1)
        se = np.sqrt(var[:3] / n)
        return MomentReport(
            mean=complex(self.means[0], self.means[1]),
            mean_se=(float(se[0]), float(se[1])),
            abs2_mean=float(self.means[2]),
            abs2_se=float(se[2]),
            var_re=float(var[0]),
            var_im=float(var[1]),
            cov=float(var[3]),
        )


def moment_report(z: np.ndarray) -> MomentReport:
    """Means of z and |z|^2 with their standard errors, and the variances
    and covariance of Re z and Im z: z folded into
    `MomentSums` in blocks of SAMPLE_BLOCK points, as the ensemble folds
    its cloud."""
    z = np.asarray(z, dtype=complex).reshape(-1)
    sums = MomentSums()
    # a fixed stride, not point_blocks: it fixes the merge points, which
    # the ensemble's streaming sampler reproduces
    for lo in range(0, z.size, SAMPLE_BLOCK):
        sums.add(z[lo:lo + SAMPLE_BLOCK])
    return sums.report()


# -- partition function ------------------------------------------------------

# The Monte Carlo proposal's standard deviation over the Gibbs weight's: the
# importance weights' variance is finite only for a scale^2 above 1/2.
_PROPOSAL_SCALE = 1.5


def _energy(a: np.ndarray, x: np.ndarray):
    """H = (1/2) x^T A x, summed term by term over the nonzero entries of A
    in row-major order; x may carry a trailing axis of points."""
    total = 0.0
    for i, j in zip(*np.nonzero(a)):
        total = total + (0.5 * a[i, j]) * (x[i] * x[j])
    return total


def partition_estimate(a: np.ndarray, beta: float, method: str = "analytic",
                       samples: int = 100_000, seed=None) -> tuple:
    """(Z, h, stderr of h): Z = integral exp(-beta H) over phase space for
    H = (1/2) x^T A x with A positive definite and 2n x 2n, and the action
    cell h = Z^(1/n) over the n oscillator pairs.

    "analytic" uses the Gaussian determinant formula.  "montecarlo" importance
    samples with a Gaussian proposal shaped by the quadratic form (scaled by
    the fixed `_PROPOSAL_SCALE` = 1.5 in standard deviation); the integrand
    is summed term by term from A, without the determinant, so the estimate
    is an independent check of the closed form.

    Both routes keep Z and its standard error in range wherever they are
    floats.  sqrt(det A) is the product of the diagonal of A's Cholesky
    factor, which stays in range where det A would not.  The weights are
    squared, and the variance and its propagation to h carried, in units of
    2^e, e the exponent of the first block's largest weight, and 2^e is
    multiplied back in last: an exact scaling, which changes no float where
    the unscaled sums stay in range.

    Memory: the draws come in blocks of min(POINT_BLOCK, block_width(2n))
    points, a point's normals holding 2n floats (4096 points for one pair,
    655 for 50), each drawn as one (2n, block) array into one reused
    buffer, and each reduced at once: its weights, then their scaled
    squares, are formed in place in the block's own temporaries and summed.
    Nothing grows with `samples`, which is refused past MAX_SAMPLES before
    any draw; the proposal's 2n x 2n covariance and Cholesky factor are
    refused past MAX_SNAPSHOT_FLOATS.
    """
    d = a.shape[0]
    n_pairs = d // 2
    if method == "analytic":
        root_det = float(np.prod(np.diag(np.linalg.cholesky(a))))
        z_val = (2.0 * math.pi / beta) ** n_pairs / root_det
        return z_val, z_val ** (1.0 / n_pairs), 0.0
    if method == "montecarlo":
        check_samples(samples, "the Monte Carlo partition integral")
        check_capacity(d * d, f"the {d:.3g} x {d:.3g} proposal covariance")
        rng = np.random.default_rng(seed)
        cov = _PROPOSAL_SCALE ** 2 * np.linalg.inv(beta * a)
        chol = np.linalg.cholesky(cov)
        log_norm = 0.5 * d * math.log(2.0 * math.pi) + float(
            np.sum(np.log(np.diag(chol)))
        )
        block = min(POINT_BLOCK, block_width(d))
        draws = np.empty(d * min(block, samples))
        total = 0.0
        total_sq = 0.0          # of the weights over 2^e
        e = None
        # a fixed stride, not point_blocks: it fixes the layout of the draws
        for lo in range(0, samples, block):
            size = min(block, samples - lo)
            xi = draws[:d * size].reshape(d, size)
            rng.standard_normal(out=xi)
            # logw = -beta H + |xi|^2 / 2 + log_norm, |xi|^2 summed over
            # the rows in order
            logw = _energy(a, chol @ xi)
            logw *= -beta
            squares = np.square(xi[0])
            for row in xi[1:]:
                squares += np.square(row)
            squares *= 0.5
            logw += squares
            logw += log_norm
            weights = np.exp(logw, out=logw)
            total += float(np.sum(weights))
            if e is None:
                e = math.frexp(float(np.max(weights)))[1]
            scaled = np.ldexp(weights, -e, out=squares)
            total_sq += float(np.sum(np.square(scaled, out=scaled)))
        z_val = total / samples
        var = max(total_sq / samples - math.ldexp(z_val, -e) ** 2, 0.0)
        se_z = math.sqrt(var / samples)
        h = z_val ** (1.0 / n_pairs)
        se_h = math.ldexp(se_z * h / (n_pairs * z_val), e)
        return z_val, h, se_h
    raise ValueError(f"unknown method {method!r}")


# -- constrained variations --------------------------------------------------

# A generator is an antisymmetric matrix Omega: x -> x + Omega grad(H) dt
# preserves H to first order.

def symplectic_generator(n_pairs: int) -> np.ndarray:
    """The block symplectic J: (q, p) -> (p, -q) pairwise."""
    dim = 2 * n_pairs
    check_capacity(dim * dim,
                   f"the {dim:.3g} x {dim:.3g} symplectic generator")
    m = np.zeros((dim, dim))
    for k in range(n_pairs):
        m[2 * k, 2 * k + 1] = 1.0
        m[2 * k + 1, 2 * k] = -1.0
    return m


def random_antisymmetric(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The antisymmetric part of a matrix of standard normal entries."""
    check_capacity(dim * dim, f"a {dim:.3g} x {dim:.3g} random generator")
    m = rng.standard_normal((dim, dim))
    return (m - m.T) / 2.0


def generator_defect(x, a: np.ndarray, generator: np.ndarray) -> float:
    """|grad H . Omega grad H| at x for H = (1/2) x^T A x: the first-order
    energy change along the generated flow, zero for an antisymmetric Omega.
    A gradient so large that the products overflow is refused by name."""
    grad = a @ x
    with np.errstate(over="ignore", invalid="ignore"):
        defect = abs(float(grad @ (generator @ grad)))
    return check_finite(defect,
                        "first-order energy change grad H . Omega grad H")


def defect_rounding_bound(x, a: np.ndarray, generator: np.ndarray) -> float:
    """A bound on the rounding in `generator_defect` for an antisymmetric
    generator, where g . Omega g is exactly 0 for whatever gradient g was
    computed: gamma_2d |g| . |Omega| |g|, d the dimension and gamma_k =
    k u / (1 - k u), u = eps / 2, since the matrix-vector and the dot
    product each round by at most gamma_d (Higham, Accuracy and Stability
    of Numerical Algorithms, sec. 3.5)."""
    grad = np.abs(a @ x)
    dim = grad.size
    eps = float(np.finfo(float).eps)
    gamma = dim * eps / (1.0 - dim * eps)
    return gamma * float(grad @ (np.abs(generator) @ grad))


def gibbs_first_order_defect(x, a: np.ndarray, generator: np.ndarray,
                             dts) -> np.ndarray:
    """|H(x + Omega grad H * dt) - H(x)| over the dt values (expected O(dt^2)).
    A step so long that the energy it reaches overflows is refused by name."""
    direction = generator @ (a @ x)
    h0 = _energy(a, x)
    changes = []
    for dt in dts:
        with np.errstate(over="ignore", invalid="ignore"):
            energy = _energy(a, x + direction * dt)
        if not math.isfinite(energy):
            raise FloatingPointError(
                f"energy H(x + Omega grad H dt) = {energy:g} at dt = {dt:g} "
                "must be finite")
        changes.append(abs(energy - h0))
    return np.array(changes)


# -- tilted measure ----------------------------------------------------------

def tilt_measure(bath: BathParams, c: complex, n_samples: int, seed) -> np.ndarray:
    """Draws z from the measure tilted by |exp(c z)|^2, the shifted Gaussian
    exp(-|z - hbar conj(c)|^2/hbar): mean hbar*conj(c), covariance unchanged
    from equilibrium (hbar/2 per component, uncorrelated).

    The real draws, then the imaginary ones, are drawn in pieces
    (`point_blocks`) and shifted by the centre straight into the real and
    imaginary parts of one complex array: the same floats as one draw per
    part, while the run holds that array and one piece of draws.  A sample
    whose complex array would pass MAX_SNAPSHOT_FLOATS raises CapacityError
    before a draw."""
    check_capacity(2 * n_samples, f"{n_samples:.3g} tilted draws")
    rng = np.random.default_rng(seed)
    hbar = bath.hbar
    center = hbar * np.conj(complex(c))
    sigma = math.sqrt(hbar / 2.0)
    z = np.empty(n_samples, dtype=complex)
    for part, shift in ((z.real, center.real), (z.imag, center.imag)):
        for block in point_blocks(n_samples):
            piece = part[block]
            np.add(rng.normal(0.0, sigma, piece.size), shift, out=piece)
    return z


# -- sphere pushforward ------------------------------------------------------

def ks_statistic(cdf_values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance from the model CDF at each draw:
    D = max over the sorted values of i/n - F_(i) and F_(i) - (i-1)/n.

    Sorts `cdf_values` in place, then forms both differences in blocks
    (`point_blocks`), each in place in one temporary beside the block's
    ranks; the maximum over the blocks is the whole-array maximum
    exactly."""
    f = cdf_values
    f.sort()
    n = f.size
    worst = -math.inf
    for cut in point_blocks(n):
        block = f[cut]
        i = np.arange(cut.start + 1, cut.stop + 1)
        d = i / n
        d -= block
        above = np.max(d)
        i -= 1
        np.divide(i, n, out=d)
        np.subtract(block, d, out=d)
        # np.max keeps a NaN that max() would drop
        worst = np.max((worst, above, np.max(d)))
    return float(worst)


def sphere_pushforward_check(radius: float, beta: float, n_samples: int,
                             seed) -> tuple:
    """Push uniform area on the sphere of radius R through the map
    |z|^2 = -ln(2 beta R^2 sin^2(theta/2))/beta, arg z = phi; returns the
    radial draws t = |z|^2, a function `angles()` that draws phi, and
    t_min, the smallest attainable |z|^2.

    Uniform area in (phi, u = sin^2(theta/2)) is uniform in both; on the
    admissible cap u <= u_max, where the log stays >= 0, the radial image t
    is exactly an exponential of rate beta shifted to start at t_min, and
    arg z stays uniform.  A radius outside (0, inf) is a float that left
    the range of the flags it was derived from.

    t is computed in place in the array of the u draws.  The angles come
    from the same generator after the u draws, as when both were drawn
    here, but only when `angles()` is called: a caller that reduces t and
    drops it before drawing phi holds one array that grows with
    `n_samples` at a time.  A sample whose arrays would each pass
    MAX_SNAPSHOT_FLOATS raises CapacityError before a draw.
    """
    check_finite(radius, "radius", positive=True)
    check_capacity(n_samples, f"each array of {n_samples:.3g} sphere draws")
    rng = np.random.default_rng(seed)
    u_max = min(1.0, 1.0 / (2.0 * beta * radius ** 2))
    t_min = max(0.0, -math.log(2.0 * beta * radius ** 2) / beta)
    t = rng.uniform(0.0, u_max, n_samples)
    # guard the measure-zero event u == 0 (log divergence)
    np.maximum(t, np.finfo(float).tiny, out=t)
    t *= 2.0 * beta * radius ** 2
    np.log(t, out=t)
    np.negative(t, out=t)
    t /= beta

    def angles() -> np.ndarray:
        return rng.uniform(0.0, 2.0 * math.pi, n_samples)

    return t, angles, t_min
