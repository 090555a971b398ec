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

from .errors import check_capacity

__all__ = [
    "BathParams",
    "MomentReport",
    "MomentSums",
    "SAMPLE_BLOCK",
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


# points per block of a pass over a sample: as in `bargmann`'s point
# kernels, 4096 values keep a block's buffers in L2 cache, and no buffer
# grows with the sample
_POINT_BLOCK = 4096
# points per block whose moments are taken as over a whole sample, before
# they are merged into the running ones (`MomentSums`).  The ensemble cloud
# streams in blocks of this size, so that its moments are `moment_report`
# of its particles as one array, float for float.  A block of 2**15 complex
# values is 512 KiB, which, with the cloud's map scratch of the same size,
# stays in a 2 MiB L2 cache.  `dynamics.ensemble_evolve` at 20 times (one
# thread, medians of 6 interleaved rounds): at 3e5 particles 0.18 s, against
# 0.16 at 2**14, 0.20 at 2**16 and 0.21 for a cloud held whole; at c = 1.2
# and 1e5 particles 0.076 s, against 0.087 at 2**14 and 0.090 held whole.
SAMPLE_BLOCK = 2 ** 15


def _block_moments(z: np.ndarray):
    """(means, squares) of one block: the means of Re z, Im z and |z|^2,
    the sums of their squared deviations from those means, and the sum of
    the products of the Re z and Im z deviations.

    Two passes: the sums of z and |z|^2 over the block, which need no
    temporary, then the squared deviations, through buffers of _POINT_BLOCK
    points."""
    n = z.size
    mean = complex(np.sum(z)) / n
    abs2_mean = float(np.vdot(z, z).real) / n
    dev = np.empty(min(n, _POINT_BLOCK), dtype=complex)
    abs2 = np.empty(dev.size)
    squares = np.zeros(4)
    for lo in range(0, n, _POINT_BLOCK):
        block = z[lo:lo + _POINT_BLOCK]
        d, a = dev[:block.size], abs2[:block.size]
        np.subtract(block, mean, out=d)
        np.multiply(block.real, block.real, out=a)
        a += block.imag * block.imag
        a -= abs2_mean
        squares += (np.dot(d.real, d.real), np.dot(d.imag, d.imag),
                    np.dot(a, a), np.dot(d.real, d.imag))
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
    for lo in range(0, z.size, SAMPLE_BLOCK):
        sums.add(z[lo:lo + SAMPLE_BLOCK])
    return sums.report()


# -- partition function ------------------------------------------------------

def _energy(a: np.ndarray, x: np.ndarray):
    """H = (1/2) x^T A x, summed term by term over the nonzero entries of A
    in row-major order; x may carry a trailing axis of points."""
    total = 0.0
    for i, j in zip(*np.nonzero(a)):
        total = total + (0.5 * a[i, j]) * (x[i] * x[j])
    return total


# floats of the Monte Carlo partition's draw buffer: a chunk of 200 000
# points for one oscillator pair, fewer points as the pairs grow
_DRAW_FLOATS = 2 * 200_000
# floats of the transformed draws chol @ xi one block of a chunk holds:
# blocks of _POINT_BLOCK points for up to 16 dimensions, fewer beyond
_BLOCK_FLOATS = 2 ** 16


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

    Memory: the draws come in chunks of _DRAW_FLOATS // 2n points (200 000
    for one pair), each drawn into one reused (2n, chunk) buffer.  A chunk
    is reduced in blocks of at most _POINT_BLOCK points and _BLOCK_FLOATS
    transformed draws; each block's weights are written over the row-0
    draws it has used, and their squares then fill row 1, so each sum runs
    over one contiguous row.  Nothing else grows with `samples` or the
    chunk; the proposal's 2n x 2n covariance and Cholesky factor are
    refused past MAX_SNAPSHOT_FLOATS.
    """
    d = a.shape[0]
    n_pairs = d // 2
    if method == "analytic":
        z_val = (2.0 * math.pi / beta) ** n_pairs / math.sqrt(np.linalg.det(a))
        return z_val, z_val ** (1.0 / n_pairs), 0.0
    if method == "montecarlo":
        check_capacity(d * d, f"the {d} x {d} proposal covariance")
        rng = np.random.default_rng(seed)
        cov = proposal_scale ** 2 * np.linalg.inv(beta * a)
        chol = np.linalg.cholesky(cov)
        log_norm = 0.5 * d * math.log(2.0 * math.pi) + float(
            np.sum(np.log(np.diag(chol)))
        )
        width = max(1, _DRAW_FLOATS // d)
        draws = np.empty(d * min(width, samples))
        block = max(1, min(_POINT_BLOCK, _BLOCK_FLOATS // d))
        total = 0.0
        total_sq = 0.0
        done = 0
        while done < samples:
            chunk = min(width, samples - done)
            xi = draws[:d * chunk].reshape(d, chunk)
            rng.standard_normal(out=xi)
            for lo in range(0, chunk, block):
                cols = xi[:, lo:lo + block]
                # logw = -beta H + |xi|^2 / 2 + log_norm, |xi|^2 summed
                # over the rows in order
                logw = _energy(a, chol @ cols)
                logw *= -beta
                squares = np.square(cols[0])
                for row in cols[1:]:
                    squares += np.square(row)
                squares *= 0.5
                logw += squares
                logw += log_norm
                np.exp(logw, out=cols[0])
            weights = xi[0]
            total += float(np.sum(weights))
            np.square(weights, out=xi[1])
            total_sq += float(np.sum(xi[1]))
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
    check_capacity((2 * n_pairs) ** 2,
                   f"the {2 * n_pairs} x {2 * n_pairs} symplectic generator")
    m = np.zeros((2 * n_pairs, 2 * n_pairs))
    for k in range(n_pairs):
        m[2 * k, 2 * k + 1] = 1.0
        m[2 * k + 1, 2 * k] = -1.0
    return m


def random_antisymmetric(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The antisymmetric part of a matrix of standard normal entries."""
    check_capacity(dim * dim, f"a {dim} x {dim} random generator")
    m = rng.standard_normal((dim, dim))
    return (m - m.T) / 2.0


def generator_defect(x, a: np.ndarray, generator: np.ndarray) -> float:
    """|grad H . Omega grad H| at x for H = (1/2) x^T A x: the first-order
    energy change along the generated flow, zero for an antisymmetric Omega."""
    grad = a @ x
    return abs(float(grad @ (generator @ grad)))


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
    """|H(x + Omega grad H * dt) - H(x)| over the dt values (expected O(dt^2))."""
    direction = generator @ (a @ x)
    h0 = _energy(a, x)
    return np.array([abs(_energy(a, x + direction * dt) - h0)
                     for dt in dts])


# -- tilted measure ----------------------------------------------------------

def tilt_measure(bath: BathParams, c: complex, n_samples: int, seed) -> np.ndarray:
    """Draws z from the measure tilted by |exp(c z)|^2, the shifted Gaussian
    exp(-|z - hbar conj(c)|^2/hbar): mean hbar*conj(c), covariance unchanged
    from equilibrium (hbar/2 per component, uncorrelated).

    The real draws, then the imaginary ones, are shifted by the centre into
    the real and imaginary parts of one complex array, so the run holds
    that array and one component's draws.  A sample whose complex array
    would pass MAX_SNAPSHOT_FLOATS raises CapacityError before a draw."""
    check_capacity(2 * n_samples, f"{n_samples} tilted draws")
    rng = np.random.default_rng(seed)
    hbar = bath.hbar
    center = hbar * np.conj(complex(c))
    sigma = math.sqrt(hbar / 2.0)
    z = np.empty(n_samples, dtype=complex)
    np.add(rng.normal(0.0, sigma, n_samples), center.real, out=z.real)
    np.add(rng.normal(0.0, sigma, n_samples), center.imag, out=z.imag)
    return z


# -- sphere pushforward ------------------------------------------------------

def ks_statistic(cdf_values: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance from the model CDF at each draw:
    D = max over the sorted values of i/n - F_(i) and F_(i) - (i-1)/n.

    Sorts `cdf_values` in place, then forms both differences in blocks of
    _POINT_BLOCK values; the maximum over the blocks is the whole-array
    maximum exactly."""
    f = cdf_values
    f.sort()
    n = f.size
    worst = -math.inf
    for lo in range(0, n, _POINT_BLOCK):
        block = f[lo:lo + _POINT_BLOCK]
        i = np.arange(lo + 1, lo + block.size + 1)
        # np.max keeps a NaN that max() would drop
        worst = np.max((worst, np.max(i / n - block),
                        np.max(block - (i - 1) / n)))
    return float(worst)


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

    t is computed in place in the array of the u draws, so the two returned
    arrays are the only ones that grow with `n_samples`; a sample whose
    arrays would each pass MAX_SNAPSHOT_FLOATS raises CapacityError before
    a draw.
    """
    if not 0.0 < radius < math.inf:
        raise FloatingPointError(f"radius {radius:g} must be positive and finite")
    check_capacity(n_samples, f"each array of {n_samples} sphere draws")
    rng = np.random.default_rng(seed)
    u_max = min(1.0, 1.0 / (2.0 * beta * radius ** 2))
    t_min = max(0.0, -math.log(2.0 * beta * radius ** 2) / beta)
    t = rng.uniform(0.0, u_max, n_samples)
    # guard the measure-zero event u == 0 (log divergence)
    np.maximum(t, np.finfo(float).tiny, out=t)
    phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    t *= 2.0 * beta * radius ** 2
    np.log(t, out=t)
    np.negative(t, out=t)
    t /= beta
    return t, phi, t_min
