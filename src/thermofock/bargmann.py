"""Numerics on the space of holomorphic functions square-integrable against
the thermal Gaussian measure.

The measure is dmu = exp(-|z|^2/hbar) * (2/h) dx dy with h = 2 pi hbar, so
the total mass is 1 and the monomials e_n(z) = z^n / sqrt(n! hbar^n) form an
orthonormal basis.  hbar is the bath parameter 1/(beta*omega).

Two independent routes are provided for the Gram matrix of that basis: a
Gauss-Laguerre x uniform-angle quadrature that is *exact* on truncated
expansions (not an approximation), and a plain Monte Carlo estimate with a
standard error, drawn from the Gaussian itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .errors import TruncationError, check_capacity
from .phasespace import OscillatorParams

__all__ = [
    "FockVector",
    "gram_quadrature",
    "gram_montecarlo",
    "coherent_vector",
    "lowering_matrix",
    "quadrature_operators",
    "hamiltonian_matrix",
    "commutator",
    "kernel_eval",
]

DEFAULT_TRUNCATION = 32
# points per block in the point kernels (and the ensemble sampler's density
# blocks): 4096 complex values are 64 KiB, so a block's working arrays stay
# in L2 cache.  On 6e5 points (2 cores, 2 MiB L2
# each) blocks of 2048 or fewer ran evaluate slower, 8192-16384 no faster.
_POINT_BLOCK = 4096


def _quad_grid(hbar: float, n_max: int):
    """Nodes/weights exact for conj(f)*g with f, g truncated at n_max.

    Polar factorization z = sqrt(hbar s) e^{i phi}: Gauss-Laguerre in s with
    n_max + 1 nodes (exact for radial degree <= 2 n_max + 1) times a uniform
    angular grid with 2 n_max + 3 points (exact for harmonics |m| <= 2n_max+2).
    """
    n_radial = n_max + 1
    n_angular = 2 * n_max + 3
    s, w = laggauss(n_radial)
    phi = 2.0 * np.pi * np.arange(n_angular) / n_angular
    r = np.sqrt(hbar * s)
    z = r[:, None] * np.exp(1j * phi)[None, :]
    weights = np.repeat(w / n_angular, n_angular)
    return z.ravel(), weights


def point_blocks(size: int) -> list:
    """Slices cutting `size` points into near-equal blocks of at most
    _POINT_BLOCK points.

    No block holds a single point unless `size` is 1: numpy multiplies a
    one-element array in place by its scalar loop (`total *= zb` in
    `FockVector.evaluate`), which rounds the imaginary part without the
    fused multiply-add of its vector loop, so a lone tail point would differ
    in the last bit from the unblocked sum.
    """
    count = max(1, -(-size // _POINT_BLOCK))
    bounds = [size * k // count for k in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _basis_matrix(z: np.ndarray, n_max: int, hbar: float,
                  out: np.ndarray = None) -> np.ndarray:
    """Rows e_0..e_{n_max} evaluated on the points z (stable recurrence),
    written into `out` (a C-contiguous (n_max + 1, z.size) complex array)
    when it is given.

    Each row is the previous one times z, written in place, then scaled by
    the real 1/sqrt(n hbar) through its real view: no complex division and
    no temporaries.
    """
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty((n_max + 1, z.size), dtype=complex)
    out[0] = 1.0
    parts = out.view(float)    # real and imaginary parts, interleaved
    flat = z.ravel()
    for n in range(1, n_max + 1):
        np.multiply(out[n - 1], flat, out=out[n])
        parts[n] *= 1.0 / math.sqrt(n * hbar)
    return out


@dataclass(frozen=True, eq=False)
class FockVector:
    """Truncated expansion sum_n coeffs[n] e_n over the measure with `hbar`.

    `tail_mass` records probability that leaked past the truncation when the
    vector came from expanding an analytic function (None otherwise).
    """

    coeffs: np.ndarray
    hbar: float
    tail_mass: float = None

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("coeffs must be a non-empty 1d array")
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("coeffs must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def truncation(self) -> int:
        return self.coeffs.size - 1

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm() - 1.0) <= tol

    def normalized(self) -> "FockVector":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return FockVector(self.coeffs / n, self.hbar, self.tail_mass)

    def evaluate(self, z):
        """Pointwise value sum_n c_n e_n(z); z may be scalar or an array.

        Summed by Horner's rule on the nested form
        c_0 + z/sqrt(hbar) (c_1 + z/sqrt(2 hbar) (c_2 + ...)): starting from
        total = c_N, each n = N..1 does total *= z, scales the real view of
        total by 1/sqrt(n hbar) and adds c_{n-1}.  That is one complex
        multiply, one real scale and one add per term, as accurate as the
        forward sum (Higham, Accuracy and Stability of Numerical Algorithms,
        sec. 5.1).  The coefficients are not folded into c_n/sqrt(n! hbar^n),
        which under- or overflows at large truncations; an overflow of the
        value itself shows up as inf or NaN, which `kernel_eval` and
        `dynamics.profile_from_fock` rely on.

        The sum runs in the output itself, block by block (`point_blocks`),
        so it needs no working memory besides the output (and a flat copy of
        a non-contiguous z) whatever the number of points.  Each value takes
        the same operations in the same order as the unblocked sum, so the
        result is bit-identical to it.
        """
        z = np.asarray(z, dtype=complex)
        out = np.empty(z.shape, dtype=complex)
        flat_z = z.reshape(-1)
        flat_out = out.reshape(-1)
        coeffs = self.coeffs
        scales = [1.0 / math.sqrt(n * self.hbar) for n in range(1, coeffs.size)]
        for block in point_blocks(z.size):
            zb = flat_z[block]
            total = flat_out[block]
            total.fill(coeffs[-1])
            parts = total.view(float)
            for n in range(coeffs.size - 1, 0, -1):
                total *= zb
                parts *= scales[n - 1]
                total += coeffs[n - 1]
        return complex(out) if out.ndim == 0 else out


def gram_quadrature(n_max: int, hbar: float) -> np.ndarray:
    """Gram matrix (e_i, e_j), i, j <= n_max, by the exact quadrature."""
    # the basis on the grid: n_max + 1 rows of (n_max + 1)(2 n_max + 3) points
    check_capacity(2 * (n_max + 1) ** 2 * (2 * n_max + 3),
                   f"the quadrature basis at truncation {n_max}")
    z, w = _quad_grid(hbar, n_max)
    basis = _basis_matrix(z, n_max, hbar)
    return (basis.conj() * w) @ basis.T


def gram_montecarlo(n_max: int, hbar: float, samples: int, seed):
    """Monte Carlo Gram matrix with a per-entry standard error.

    Returns (G, se); the sample mean of conj(e_i) e_j over draws from the
    Gaussian measure, and sqrt(var/samples) entrywise.  Constant entries
    (i = j = 0) have zero variance by construction.

    Points are drawn in chunks of 100 000, which fixes the draws for a seed:
    each chunk's real parts, then its imaginary parts, N(0, hbar/2) each.
    The real parts are drawn into one reused float buffer and scaled by
    sigma in place; the imaginary parts are drawn block by block
    (`point_blocks`), in the same stream order, as each block's points are
    formed.  A block's basis and its conjugate are written into two fixed
    complex buffers of (n_max + 1) x _POINT_BLOCK entries, and |e|^2 then
    into the conjugate's, and its sums are accumulated into the
    (n_max + 1)^2 totals, so the working memory is one chunk of real draws
    and those two block buffers whatever `samples` is.
    """
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(hbar / 2.0)    # N(0, hbar/2) real and imaginary parts
    dim = n_max + 1
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros((dim, dim))
    real_parts = np.empty(min(100_000, samples))
    width = min(_POINT_BLOCK, samples)
    points = np.empty(width, dtype=complex)
    imag_parts = np.empty(width)
    basis_buf = np.empty(dim * width, dtype=complex)
    conj_buf = np.empty(dim * width, dtype=complex)
    # once the product with the conjugate is taken, its buffer's floats
    # hold |e|^2 in their first half and Im(e)^2 in their second
    floats = conj_buf.view(float)
    done = 0
    while done < samples:
        chunk = min(100_000, samples - done)
        real = real_parts[:chunk]
        rng.standard_normal(out=real)
        real *= sigma
        for block in point_blocks(chunk):
            size = block.stop - block.start
            entries = dim * size
            z = points[:size]
            imag = rng.standard_normal(out=imag_parts[:size])
            z.real = real[block]
            np.multiply(imag, sigma, out=z.imag)
            basis = _basis_matrix(z, n_max, hbar,
                                  out=basis_buf[:entries].reshape(dim, size))
            conj = np.conjugate(basis,
                                out=conj_buf[:entries].reshape(dim, size))
            acc += conj @ basis.T
            sq = np.square(basis.real,
                           out=floats[:entries].reshape(dim, size))
            sq += np.square(basis.imag,
                            out=floats[entries:2 * entries].reshape(dim, size))
            acc_sq += sq @ sq.T
        done += chunk
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


def _coherent_coeffs(amp: complex, n_max: int) -> np.ndarray:
    """c_n = amp^n / sqrt(n!) for n = 0..n_max, by the ratio recurrence;
    an overflow is left for the caller to catch or rule out.

    Once a coefficient underflows to an exact zero, every later one is zero
    too, and only the signs of its two zero parts still change.  They follow
    a map of four states, which cycles with a period dividing 12 from the
    third step on, so the recurrence stops 15 steps past the first zero and
    the rest repeats the last 12 values: the same bits, not one Python step
    per coefficient.
    """
    coeffs = np.empty(n_max + 1, dtype=complex)
    coeffs[0] = 1.0
    first_zero = None
    for n in range(1, n_max + 1):
        coeffs[n] = coeffs[n - 1] * amp / math.sqrt(n)
        if first_zero is None:
            if coeffs[n] == 0:
                first_zero = n
        elif n == first_zero + 15:
            coeffs[n + 1:] = np.resize(coeffs[n - 11:n + 1], n_max - n)
            break
    return coeffs


def coherent_vector(c: complex, n_max: int = DEFAULT_TRUNCATION,
                    hbar: float = 1.0) -> FockVector:
    """Expansion of exp(c z) in the orthonormal basis: c_n = (c sqrt(hbar))^n/sqrt(n!).

    The squared norm of the full function is exp(hbar |c|^2); `tail_mass` on
    the returned vector is the part of it lost to the truncation.
    """
    check_capacity(2 * (n_max + 1), f"a coherent vector at truncation {n_max}")
    c = complex(c)
    log_norm2 = hbar * abs(c) * abs(c)
    coeffs = _coherent_coeffs(c * math.sqrt(hbar), n_max)
    tail = max(math.exp(log_norm2) - float(np.sum(np.abs(coeffs) ** 2)), 0.0)
    return FockVector(coeffs, hbar, tail_mass=tail)


def lowering_matrix(n_max: int, hbar: float) -> np.ndarray:
    """The lowering operator e_n -> sqrt(n hbar) e_{n-1} in the e_n basis.

    Its entries are real, so its transpose is the raising operator
    e_n -> sqrt((n+1) hbar) e_{n+1}, less what would leave the truncation.
    The dtype is complex, as for every operator the commutators compare:
    numpy sums a complex trace in another order than a real one.
    """
    check_capacity(2 * (n_max + 1) ** 2,
                   f"the lowering matrix at truncation {n_max}")
    m = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    m[np.arange(n_max), np.arange(1, n_max + 1)] = np.sqrt(
        np.arange(1, n_max + 1) * hbar)
    return m


def quadrature_operators(hbar: float, n_max: int):
    """Position and momentum matrices q = (a+ + a)/sqrt2, p = i (a+ - a)/sqrt2.

    Their commutator equals i hbar times the identity on the interior block
    (rows and columns below n_max); the top level feels the truncation.
    """
    a = lowering_matrix(n_max, hbar)
    s = 2.0 ** -0.5
    return (a.T + a) * s, 1j * (a.T - a) * s


def hamiltonian_matrix(ordering: str, params: OscillatorParams, hbar: float,
                       n_max: int) -> np.ndarray:
    """Diagonal oscillator Hamiltonian.

    "normal" ordering gives energies hbar w n; "symmetric" ordering adds the
    half-quantum and is built additively as normal + hbar w / 2 so the
    difference of the two matrices is that constant shift, exactly.
    """
    check_capacity(2 * (n_max + 1) ** 2,
                   f"the Hamiltonian matrix at truncation {n_max}")
    base = hbar * params.omega * np.arange(n_max + 1, dtype=float)
    if ordering == "normal":
        diag = base
    elif ordering == "symmetric":
        diag = base + hbar * params.omega / 2.0
    else:
        raise ValueError("ordering must be 'normal' or 'symmetric'")
    return np.diag(diag.astype(complex))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A, B] = AB - BA of two square matrices."""
    return a @ b - b @ a


_KERNEL_MISMATCH_TOL = 1e-10


def kernel_eval(c: complex, psi: FockVector) -> complex:
    """Reproducing-kernel evaluation: (f_c, psi) = psi(hbar * conj(c)).

    Computes both routes -- the coefficient pairing with the coherent vector
    and the direct pointwise evaluation -- and insists they agree to
    _KERNEL_MISMATCH_TOL (relative), which catches overflow or truncation
    damage.  Returns the pairing value.
    """
    c = complex(c)
    n_max = psi.truncation
    hbar = psi.hbar
    # overflow here is caught by the route comparison below, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        coh = _coherent_coeffs(np.conj(c) * math.sqrt(hbar), n_max)
        paired = complex(np.sum(coh * psi.coeffs))
        direct = psi.evaluate(hbar * np.conj(c))
    scale = max(1.0, abs(direct))
    if not (abs(paired - direct) <= _KERNEL_MISMATCH_TOL * scale):
        raise TruncationError(
            f"kernel routes disagree: pairing {paired!r} vs direct {direct!r}"
        )
    return paired
