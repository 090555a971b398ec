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

from .errors import (
    POINT_BLOCK, CapacityError, TruncationError, block_width, check_capacity,
    check_finite, check_samples, point_blocks)

__all__ = [
    "FockVector",
    "gram_quadrature",
    "gram_montecarlo",
    "coherent_vector",
    "lowering_matrix",
    "quadrature_operators",
    "hamiltonian_levels",
    "commutator",
    "kernel_eval",
]


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
    """Truncated expansion sum_n coeffs[n] e_n over the measure with `hbar`."""

    coeffs: np.ndarray
    hbar: float

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
        return FockVector(self.coeffs / n, self.hbar)

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
    """Gram matrix (e_i, e_j), i, j <= n_max, by the exact quadrature.

    The grid z = r_s e^{i phi_k} is Gauss-Laguerre in s = r^2/hbar with
    n_max + 1 nodes (exact for radial degree <= 2 n_max + 1) times M =
    2 n_max + 3 angles (exact for harmonics |d| <= 2 n_max + 2), so
    G_ij = H_ij A_{j-i}: H_ij = sum_s w_s e_i(r_s) e_j(r_s) over the basis
    rows at r_s, A_d = (1/M) sum_k e^{i d phi_k}.  Rows are summed pairwise
    by numpy, no BLAS call, so the result does not depend on the thread
    count; G_ji = conj(G_ij).  The array cap, then the rule, cap n_max:
    laggauss's weights are not finite from 187 nodes (numpy 2.4.6).
    """
    # imported here, not at the top: numpy.polynomial loads all six of its
    # families, and only this route needs one
    from numpy.polynomial.laguerre import laggauss

    dim, count = n_max + 1, 2 * n_max + 3
    # the angular powers, the largest array; laggauss's are dim x dim
    check_capacity(2 * dim * count, f"the quadrature Gram at nmax {n_max:.3g}")
    with np.errstate(over="ignore", invalid="ignore"):
        s, w = laggauss(dim)
    if not all(map(math.isfinite, [*s, *w])):
        raise CapacityError(
            f"the {dim}-node Gauss-Laguerre rule of truncation {n_max} has "
            f"non-finite nodes or weights")
    # only the complex products and sums the Monte Carlo loop runs: real
    # rows, index arrays or a divide raised `gram --samples 1e6`'s peak RSS
    roots = np.exp(1j * (2.0 * np.pi * np.arange(count) / count))
    powers = np.empty((dim, count), dtype=complex)    # e^{i d phi_k}
    powers[0] = 1.0
    for d in range(1, dim):
        np.multiply(powers[d - 1], roots, out=powers[d])
    angular = powers.sum(axis=1) * (1.0 / count)
    del powers
    radial = _basis_matrix(np.sqrt(hbar * s), n_max, hbar)
    weighted = radial * w
    gram = np.empty((dim, dim), dtype=complex)
    for i in range(dim):
        gram[i, i:] = (weighted[i] * radial[i:]).sum(axis=1) * angular[:dim - i]
        gram[i + 1:, i] = gram[i, i + 1:].conj()
    return gram


def gram_montecarlo(n_max: int, hbar: float, samples: int, seed):
    """Monte Carlo Gram matrix with a per-entry standard error.

    Returns (G, se); the sample mean of conj(e_i) e_j over draws from the
    Gaussian measure, and sqrt(var/samples) entrywise.  Constant entries
    (i = j = 0) have zero variance by construction.  More than
    `errors.MAX_SAMPLES` samples are refused before any draw.

    Points are drawn in chunks of 100 000, which fixes the draws for a seed:
    each chunk's real parts, then its imaginary parts, N(0, hbar/2) each.
    A chunk is cut into near-equal blocks (`point_blocks`) of at most
    min(POINT_BLOCK, block_width(4 (n_max + 1))) points, a point's basis
    and conjugate columns holding 4 (n_max + 1) floats: 963 at n_max 16,
    and at least 88 up to the quadrature's cap, n_max 185.  At each chunk
    the generator's state is copied, and the generator skips the chunk's
    real parts, drawn block by block; each block's real parts are then
    replayed from the copy beside its imaginary parts, drawn from the
    generator, in the same stream order: the bits of the chunk drawn whole,
    for one more normal a sample.  Each block's sums are added to the
    (n_max + 1)^2 totals, so the block only sets the order of the sums.

    Memory: one reused float buffer of a block's normals (7.5 KiB at n_max
    16), scaled by sigma into the block's points, and two fixed complex
    block buffers, the basis and its conjugate, of at most half the block
    budget (`errors.BLOCK_FLOATS`, 256 KiB) each, |e|^2 then written into
    the conjugate's.  That holds whatever `samples` and `n_max` are.
    """
    check_samples(samples, "the Monte Carlo Gram")
    rng = np.random.default_rng(seed)
    bits = rng.bit_generator
    # a generator of the same kind, set to each chunk's start to replay it
    replay = np.random.Generator(type(bits)(0))
    sigma = math.sqrt(hbar / 2.0)    # N(0, hbar/2) real and imaginary parts
    dim = n_max + 1
    acc = np.zeros((dim, dim), dtype=complex)
    acc_sq = np.zeros((dim, dim))
    width = min(POINT_BLOCK, block_width(4 * dim))
    largest = min(width, samples)
    points = np.empty(largest, dtype=complex)
    normals = np.empty(largest)
    basis_buf = np.empty(dim * largest, dtype=complex)
    conj_buf = np.empty(dim * largest, dtype=complex)
    # once the product with the conjugate is taken, its buffer's floats
    # hold |e|^2 in their first half and Im(e)^2 in their second
    floats = conj_buf.view(float)
    done = 0
    while done < samples:
        chunk = min(100_000, samples - done)
        blocks = point_blocks(chunk, width)
        replay.bit_generator.state = bits.state
        for block in blocks:
            rng.standard_normal(out=normals[:block.stop - block.start])
        for block in blocks:
            size = block.stop - block.start
            entries = dim * size
            z = points[:size]
            np.multiply(replay.standard_normal(out=normals[:size]), sigma,
                        out=z.real)
            np.multiply(rng.standard_normal(out=normals[:size]), sigma,
                        out=z.imag)
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
    # the same floats as mean = acc / samples and so on, formed in place
    mean = np.divide(acc, samples, out=acc)
    var = np.divide(acc_sq, samples, out=acc_sq)
    var -= np.abs(mean) ** 2
    np.maximum(var, 0.0, out=var)
    var /= samples
    return mean, np.sqrt(var, out=var)


def _coherent_coeffs(amp: complex, n_max: int) -> np.ndarray:
    """c_n = amp^n / sqrt(n!) for n = 0..n_max, by the ratio recurrence;
    an overflow is left for the caller to catch or rule out."""
    coeffs = np.empty(n_max + 1, dtype=complex)
    coeffs[0] = 1.0
    for n in range(1, n_max + 1):
        coeffs[n] = coeffs[n - 1] * amp / math.sqrt(n)
    return coeffs


def coherent_vector(c: complex, n_max: int, hbar: float) -> FockVector:
    """Expansion of exp(c z) in the orthonormal basis: c_n = (c sqrt(hbar))^n/sqrt(n!).

    The squared norm of the full function is exp(hbar |c|^2); the
    truncation keeps the part sum_n |c_n|^2 of it.
    """
    check_capacity(2 * (n_max + 1),
                   f"a coherent vector at truncation {n_max:.3g}")
    c = complex(c)
    return FockVector(_coherent_coeffs(c * math.sqrt(hbar), n_max), hbar)


def lowering_matrix(n_max: int, hbar: float) -> np.ndarray:
    """The lowering operator e_n -> sqrt(n hbar) e_{n-1} in the e_n basis.

    Its entries are real, so its transpose is the raising operator
    e_n -> sqrt((n+1) hbar) e_{n+1}, less what would leave the truncation.
    The dtype is complex, as for every operator the commutators compare:
    numpy sums a complex trace in another order than a real one.
    """
    check_capacity(2 * (n_max + 1) ** 2,
                   f"the lowering matrix at truncation {n_max:.3g}")
    check_finite(n_max * hbar, "top squared ladder entry n_max hbar")
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


def hamiltonian_levels(ordering: str, omega: float, hbar: float,
                       n_max: int) -> np.ndarray:
    """The levels of the diagonal oscillator Hamiltonian, its diagonal as
    n_max + 1 real floats.

    "normal" ordering gives energies hbar w n; "symmetric" ordering adds the
    half-quantum and is built additively as normal + hbar w / 2.  The
    difference of the two is that constant shift exactly only on the levels
    where the sum hbar w n + hbar w / 2 rounds exactly (every level at
    hbar w = 1); elsewhere it is within half an ulp of the largest level:
    1.4e-15 at hbar 0.3, w 1 and truncation 64.
    """
    check_capacity(n_max + 1,
                   f"the Hamiltonian's levels at truncation {n_max:.3g}")
    check_finite(hbar * omega * n_max, "top energy hbar omega n_max")
    base = hbar * omega * np.arange(n_max + 1, dtype=float)
    if ordering == "normal":
        return base
    if ordering == "symmetric":
        return base + hbar * omega / 2.0
    raise ValueError("ordering must be 'normal' or 'symmetric'")


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
