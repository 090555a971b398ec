"""Holomorphic Fock-space numerics against closed-form Gaussian integrals.

Oracles used here, all independent of the quadrature code under test:
  (e_n, e_m) = delta_nm                 (orthonormality of the basis)
  (f_a, f_b) = exp(hbar conj(a) b)      (coherent pairing, from the Gaussian
                                         integral of exp(conj(a) z) exp(b z))
  (f_c, psi) = psi(hbar conj(c))        (reproducing kernel)
  a f_c = hbar c f_c                    (coherent states as eigenvectors)
"""

import hashlib
import math

import numpy as np
import pytest

from thermofock import bargmann, cli, errors
from thermofock.bargmann import (
    FockVector,
    coherent_vector,
    commutator,
    gram_montecarlo,
    gram_quadrature,
    hamiltonian_levels,
    kernel_eval,
    lowering_matrix,
    quadrature_operators,
)
from thermofock.errors import CapacityError, TruncationError


# -- Gram matrices ------------------------------------------------------------

def test_quadrature_gram_is_identity():
    for hbar in (1.0, 0.5, 2.5):
        g = gram_quadrature(12, hbar)
        np.testing.assert_allclose(g, np.eye(13), atol=1e-12)


def test_quadrature_gram_identity_large_truncation():
    g = gram_quadrature(16, 1.0)
    assert np.max(np.abs(g - np.eye(17))) < 1e-10


def _gram_on_the_polar_grid(n_max, hbar):
    # the reference: conj(e_i) w e_j summed over the whole product grid at
    # once, Gauss-Laguerre in s = |z|^2/hbar times 2 n_max + 3 angles
    s, w = np.polynomial.laguerre.laggauss(n_max + 1)
    count = 2 * n_max + 3
    phi = 2.0 * np.pi * np.arange(count) / count
    z = (np.sqrt(hbar * s)[:, None] * np.exp(1j * phi)).ravel()
    basis = z ** np.arange(n_max + 1)[:, None] / np.sqrt(
        [math.factorial(n) * hbar ** n for n in range(n_max + 1)])[:, None]
    return np.conjugate(basis) * np.repeat(w / count, count) @ basis.T


@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("n_max", [0, 1, 12, 40])
def test_quadrature_gram_is_the_sum_over_the_polar_grid(n_max, hbar):
    # the radial sum times the angular sum against the direct sum over the
    # grid, within a few ulps of the largest entry, 1: up to 7 ulps apart at
    # n_max 40, since the reference forms its basis by powers and sums it by
    # BLAS
    g = gram_quadrature(n_max, hbar)
    ref = _gram_on_the_polar_grid(n_max, hbar)
    assert np.max(np.abs(g - ref)) <= 16 * np.finfo(float).eps
    assert np.array_equal(g, g.conj().T)


@pytest.mark.parametrize("n_max, deviation", [(16, 9.33e-15),
                                              (100, 1.19e-13)])
def test_quadrature_gram_deviation_from_the_identity_is_at_its_floor(
        n_max, deviation):
    # within 5 % of max |G - I| of the direct sum over the whole grid
    g = gram_quadrature(n_max, 1.0)
    assert np.max(np.abs(g - np.eye(n_max + 1))) <= 1.05 * deviation


def test_laguerre_rule_matches_scipy():
    # every rule the quadrature Gram uses, up to its cap of 186 nodes
    special = pytest.importorskip("scipy.special")
    for n in range(1, 187):
        nodes, weights = np.polynomial.laguerre.laggauss(n)
        ref_nodes, ref_weights = special.roots_laguerre(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=1e-12)
        np.testing.assert_allclose(weights, ref_weights, rtol=1e-10)


def test_montecarlo_gram_matches_within_stated_errors():
    mean, se = gram_montecarlo(8, 1.0, 200_000, seed=11)
    err = np.abs(mean - np.eye(9))
    assert np.all(err <= 3.0 * se)
    # every entry but (0,0) fluctuates; (0,0) integrates |e_0|^2 = 1 exactly
    assert se[0, 0] == 0.0
    assert np.all(se.ravel()[1:] > 0)


def _unblocked_gram_montecarlo(n_max, hbar, samples, seed):
    # the estimator with one basis matrix per 100 000-draw chunk
    rng = np.random.default_rng(seed)
    sigma = math.sqrt(hbar / 2.0)
    acc = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    acc_sq = np.zeros((n_max + 1, n_max + 1))
    done = 0
    while done < samples:
        chunk = min(100_000, samples - done)
        z = rng.normal(0.0, sigma, chunk) + 1j * rng.normal(0.0, sigma, chunk)
        basis = np.empty((n_max + 1, chunk), dtype=complex)
        basis[0] = 1.0
        for n in range(1, n_max + 1):
            basis[n] = basis[n - 1] * z / math.sqrt(n * hbar)
        acc += basis.conj() @ basis.T
        sq = np.abs(basis) ** 2
        acc_sq += sq @ sq.T
        done += chunk
    mean = acc / samples
    var = np.maximum(acc_sq / samples - np.abs(mean) ** 2, 0.0)
    return mean, np.sqrt(var / samples)


@pytest.mark.parametrize("n_max,hbar,samples", [(12, 1.0, 150_000),
                                                (3, 0.4, 4097),
                                                (16, 1.0, 200_001)])
def test_montecarlo_gram_matches_unblocked_reference(n_max, hbar, samples):
    # same draws; only the summation order of the block products differs.
    # At n_max 16 a chunk's blocks of at most 963 points come out ragged
    # (104 of them, 961 or 962 points), and 200 001 ends on a one-point chunk
    mean, se = gram_montecarlo(n_max, hbar, samples, seed=5)
    ref_mean, ref_se = _unblocked_gram_montecarlo(n_max, hbar, samples, 5)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_allclose(se, ref_se, rtol=1e-12)


@pytest.mark.parametrize("samples", [100_000, 300_000])
def test_montecarlo_gram_memory_is_bounded(traced_peak, samples):
    # one (n_max + 1) x 963 basis block and its conjugate; a basis matrix
    # over a whole 100 000-draw chunk would alone take 26 MiB here
    _, peak = traced_peak(lambda: gram_montecarlo(16, 1.0, samples, 7))
    assert peak <= 8 * 2 ** 20


def _first_draws():
    """A 10-sample Monte Carlo Gram, which makes numpy.random's first-call
    allocations (0.7 MiB)."""
    gram_montecarlo(2, 1.0, 10, 7)


def test_montecarlo_gram_draws_as_before():
    # sha256 of (G, se); 200 001 samples end on a one-point chunk.  The
    # draws are those of the estimator that formed each chunk as a + 1j b;
    # blocks sized by their entries moved only the order of the block sums
    # (c78c7b2f1bce... with blocks of POINT_BLOCK points)
    mean, se = gram_montecarlo(8, 0.7, 200_001, 3)
    assert hashlib.sha256(mean.tobytes() + se.tobytes()).hexdigest() == (
        "6b170347df40589c6a5b5519df09625f85c602c44c9e42887ba0cd86eba9d282")


def test_montecarlo_gram_at_a01_samples_holds_no_chunk_buffer(traced_peak):
    # one block's fixed buffers, the basis and its conjugate at 17 x 963
    # entries, 0.25 MiB each, and a block's 963 normals: 0.55 MiB.  A
    # chunk's 0.76 MiB of real draws, held while its blocks ran, made it
    # 1.31 MiB; blocks of POINT_BLOCK points took 1.06 MiB a buffer, 3.0 MiB
    # in all; a chunk's complex buffer and per-block temporaries 4.1 MiB,
    # forming a + 1j b 6.27
    _, peak = traced_peak(lambda: gram_montecarlo(16, 1.0, 10 ** 6, 7),
                          _first_draws)
    assert peak <= 0.6 * 2 ** 20


def test_montecarlo_gram_block_buffers_do_not_grow_with_the_truncation(
        traced_peak):
    # at n_max 100 a block is 162 points, so each block buffer stays within
    # 2**14 complex entries: 0.92 MiB with the 101 x 101 totals and one
    # block's products, 1.31 MiB when a chunk's 50 000 real draws were held.
    # Blocks of POINT_BLOCK points held 101 x 4096 entries a buffer,
    # 13.7 MiB in all
    _, peak = traced_peak(lambda: gram_montecarlo(100, 1.0, 50_000, 7),
                          _first_draws)
    assert peak <= 1.0 * 2 ** 20


def test_quadrature_gram_holds_a_few_square_arrays(traced_peak):
    # at n_max 160 the traced peak is 1.72 MiB: the basis rows at the
    # radial nodes, their weighted copy, the Gram matrix and one row's
    # products, each at most 0.4 MiB ((n_max + 1)^2 complex), after the
    # 0.8 MiB of angular powers are dropped; a basis over the whole polar
    # grid would be 134 MB
    # a first call imports numpy.polynomial
    _, peak = traced_peak(lambda: gram_quadrature(160, 1.0),
                          lambda: gram_quadrature(2, 1.0))
    assert peak <= 1.8 * 2 ** 20


def test_montecarlo_gram_requires_seed(usage_error, monkeypatch):
    # Monte Carlo without a seed is refused before any numerics: at --nmax
    # 1e6 the quadrature's CapacityError (exit 3) came first, and at 185 a
    # quarter second of quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("the quadrature Gram ran")

    monkeypatch.setattr(bargmann, "gram_quadrature", no_quadrature)
    for nmax in ("16", "185", "1e6"):
        usage_error(["gram", "--nmax", nmax, "--samples", "1000"], "--seed")


# -- coherent states ----------------------------------------------------------

def test_coherent_pairing_oracle():
    # (f_a, f_b) = exp(hbar conj(a) b), paired in the orthonormal basis
    hbar = 0.7
    for a, b in [(0.5, 0.5), (0.3 + 0.4j, -0.2 + 0.1j), (1.0, 1j)]:
        fa = coherent_vector(a, 40, hbar)
        fb = coherent_vector(b, 40, hbar)
        expected = np.exp(hbar * np.conj(a) * b)
        assert np.vdot(fa.coeffs, fb.coeffs) == pytest.approx(expected, rel=1e-12)


def test_coherent_norm_completeness_record():
    # the `coherent` runner measures the squared norm plus the tail the
    # truncation lost against exp(hbar |c|^2)
    outcome = cli.evaluate(cli.build_parser().parse_args(
        ["coherent", "--c", "0.5", "--nmax", "32", "--hbar", "1"]))
    check = {c.name: c for c in outcome.report.checks}[
        "coherent-norm-completeness"]
    full = math.exp(0.25)
    assert check.passed and check.oracle == full
    assert check.measured == pytest.approx(full, rel=1e-12)
    tail = check.measured - coherent_vector(0.5, 32, 1.0).norm() ** 2
    assert 0.0 <= tail < 1e-30   # truncation 32 is far past the mass of c=0.5


def test_coherent_vacuum_passes_at_large_hbar():
    # c = 0 is the vacuum at any hbar: no check reads the squared norm
    # exp(0.13 hbar) of the second coherent vector, which overflows here
    outcome = cli.evaluate(cli.build_parser().parse_args(
        ["coherent", "--c", "0", "--hbar", "1e4"]))
    assert outcome.code == cli.EXIT_PASS


def test_coherent_is_ladder_eigenvector():
    c, hbar = 0.8 - 0.3j, 1.3
    f = coherent_vector(c, 48, hbar)
    lowered = lowering_matrix(48, hbar) @ f.coeffs
    # a f_c = hbar c f_c on the retained coefficients
    np.testing.assert_allclose(lowered[:40], hbar * c * f.coeffs[:40],
                               atol=1e-12)


def test_kernel_reproduces_point_values():
    rng = np.random.default_rng(12)
    psi = FockVector(rng.standard_normal(12) + 1j * rng.standard_normal(12), 1.0)
    for c in (0.4, -0.2 + 0.7j):
        lhs = kernel_eval(c, psi)
        assert lhs == pytest.approx(psi.evaluate(1.0 * np.conj(c)), abs=1e-10)


def test_kernel_dual_route_mismatch_guard():
    # far outside the representable range both routes overflow; the guard
    # refuses to hand back inf/nan instead of silently returning garbage
    psi = FockVector(np.array([0.0, 0.0, 1.0]), 1.0)
    with pytest.raises(TruncationError):
        kernel_eval(1e200, psi)


def test_evaluate_matches_series():
    f = coherent_vector(0.6, 30, 1.0)
    z = 0.3 + 0.2j
    assert f.evaluate(z) == pytest.approx(np.exp(0.6 * z), rel=1e-12)


def _unblocked_horner(coeffs, hbar, z):
    # Horner's rule over all points at once, in the same operation order
    z = np.asarray(z, dtype=complex)
    total = np.full(z.shape, coeffs[-1])
    parts = total.reshape(-1).view(float)
    for n in range(coeffs.size - 1, 0, -1):
        total *= z
        parts *= 1.0 / math.sqrt(n * hbar)
        total += coeffs[n - 1]
    return total


@pytest.mark.parametrize("points", [0, 1, errors.POINT_BLOCK - 1,
                                    errors.POINT_BLOCK,
                                    errors.POINT_BLOCK + 1,
                                    3 * errors.POINT_BLOCK + 7])
def test_blocked_evaluate_is_bit_identical_to_the_recurrence(points):
    rng = np.random.default_rng(points)
    coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    f = FockVector(coeffs, 0.8)
    z = 1.5 * (rng.standard_normal(points) + 1j * rng.standard_normal(points))
    values = f.evaluate(z)
    assert values.shape == z.shape
    assert np.array_equal(values, _unblocked_horner(f.coeffs, 0.8, z))


def test_blocked_evaluate_keeps_shape_and_scalars():
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    f = FockVector(coeffs, 0.8)
    grid = rng.standard_normal((3, errors.POINT_BLOCK // 2 + 5)) + 1j
    for z in (grid, grid.T):    # C-ordered and strided 2-D inputs
        values = f.evaluate(z)
        assert values.shape == z.shape
        assert np.array_equal(values, _unblocked_horner(f.coeffs, 0.8, z))
    value = f.evaluate(0.3 - 0.7j)
    assert type(value) is complex
    assert value == _unblocked_horner(f.coeffs, 0.8, 0.3 - 0.7j)


@pytest.mark.parametrize("n_max,hbar,spread", [(32, 1.0, 1.5), (32, 0.3, 4.0),
                                               (60, 2.0, 8.0), (0, 1.0, 1.0)])
def test_evaluate_error_is_bounded_by_the_coefficient_majorant(n_max, hbar,
                                                               spread):
    # forward error against an extended-precision forward sum, in units of
    # eps A(|z|) with A(r) = sum |c_n| r^n / sqrt(n! hbar^n), the coefficient
    # majorant.  Horner's error bound grows like N of these units (Higham,
    # sec. 5.1); the cases here read at most 5.4, against 2 (N + 1) allowed
    rng = np.random.default_rng(n_max)
    coeffs = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    f = FockVector(coeffs, hbar)
    z = spread * (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
    zl = z.astype(np.clongdouble)
    term = np.ones_like(zl)
    exact = coeffs[0] * term
    radius = np.abs(zl)
    rterm = np.ones_like(radius)
    majorant = abs(coeffs[0]) * rterm
    for n in range(1, n_max + 1):
        step = np.sqrt(np.longdouble(n) * np.longdouble(hbar))
        term = term * zl / step
        rterm = rterm * radius / step
        exact = exact + coeffs[n].astype(np.clongdouble) * term
        majorant = majorant + abs(coeffs[n]) * rterm
    error = np.abs(f.evaluate(z).astype(np.clongdouble) - exact)
    units = error / (np.finfo(float).eps * majorant)
    assert float(np.max(units)) <= 2 * (n_max + 1)


def test_evaluate_allocates_no_basis_matrix(traced_peak):
    # the (nmax + 1) x points basis matrix alone would be 33 z.nbytes here
    f = coherent_vector(0.6, 32, 1.0)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    values, peak = traced_peak(lambda: f.evaluate(z))
    assert values.shape == z.shape
    # the output and nothing else: the sum runs in place
    assert peak <= 1.05 * z.nbytes


# -- operators ---------------------------------------------------------------

def test_ladder_matrix_entries():
    hbar = 0.5
    a = lowering_matrix(6, hbar)
    assert not np.any(a.imag)
    for n in range(1, 7):
        assert a[n - 1, n] == pytest.approx(math.sqrt(n * hbar))
    # one entry per column, above the diagonal: raising is the transpose
    assert np.count_nonzero(a) == 6
    np.testing.assert_array_equal(a, np.diag(np.diag(a, 1), 1))


def test_ladder_commutator_is_hbar_on_interior():
    for hbar, n_max in [(1.0, 16), (0.5, 64), (2.0, 32)]:
        a = lowering_matrix(n_max, hbar)
        comm = commutator(a, a.T)
        interior = comm[:n_max, :n_max]
        assert np.max(np.abs(interior - hbar * np.eye(n_max))) <= 1e-12
        # the corner carries the truncation: -n_max * hbar instead of hbar
        assert comm[n_max, n_max] == pytest.approx(-n_max * hbar, rel=1e-12)


def test_commutator_trace_vanishes():
    # exact telescoping up to per-entry rounding, so the bound scales with N
    n_max, hbar = 64, 1.0
    a = lowering_matrix(n_max, hbar)
    assert abs(np.trace(commutator(a, a.T))) <= 1e-12 * (n_max + 1) * hbar


def test_position_momentum_commutator():
    hbar = 1.0
    q, p = quadrature_operators(hbar, 32)
    comm = commutator(q, p)
    interior = comm[:32, :32]
    assert np.max(np.abs(interior - 1j * hbar * np.eye(32))) <= 1e-12


def test_ordering_gap_is_half_quantum():
    levels_norm = hamiltonian_levels("normal", 1.0, 1.0, 24)
    levels_sym = hamiltonian_levels("symmetric", 1.0, 1.0, 24)
    assert levels_norm.dtype == float and levels_norm.shape == (25,)
    np.testing.assert_array_equal(levels_norm, np.arange(25.0))
    # additive construction at hbar*omega = 1: the difference is exact
    np.testing.assert_array_equal(levels_sym - levels_norm, np.full(25, 0.5))


def test_ordering_gap_generic_frequency():
    hbar = 0.37
    levels_norm = hamiltonian_levels("normal", math.pi, hbar, 10)
    levels_sym = hamiltonian_levels("symmetric", math.pi, hbar, 10)
    # generic hbar*omega: the additive construction leaves at most 1 ulp
    np.testing.assert_allclose(levels_sym - levels_norm,
                               np.full(11, 0.5 * hbar * math.pi), rtol=4e-15)


# -- FockVector basics ---------------------------------------------------------

def test_fock_vector_validation(usage_error):
    with pytest.raises(ValueError):
        FockVector(np.array([]), 1.0)
    # an overflowed coefficient is a numerical failure (exit 3)
    with pytest.raises(FloatingPointError):
        FockVector(np.array([np.inf, 1.0]), 1.0)
    # every FockVector's hbar comes from --hbar, which refuses 0
    for command in ("gram", "coherent"):
        usage_error([command, "--hbar", "0"], "--hbar")


def test_normalized_and_zero_vector_guards():
    f = FockVector(np.array([3.0, 4.0]), 1.0)
    assert f.norm() == pytest.approx(5.0)
    g = f.normalized()
    assert g.is_normalized()
    with pytest.raises(ValueError):
        FockVector(np.zeros(3), 1.0).normalized()


# -- the cap on arrays the truncation sizes --------------------------------------

@pytest.mark.parametrize("build, floats", [
    (lambda n: lowering_matrix(n, 1.0), lambda n: 2 * (n + 1) ** 2),
    (lambda n: hamiltonian_levels("normal", 1.0, 1.0, n), lambda n: n + 1),
    (lambda n: coherent_vector(0.5, n, 1.0).coeffs, lambda n: 2 * (n + 1)),
    # the quadrature Gram's angular powers, n + 1 rows of 2n + 3 roots
    (lambda n: gram_quadrature(n, 1.0), lambda n: 2 * (n + 1) * (2 * n + 3)),
], ids=["lowering", "hamiltonian", "coherent", "gram"])
def test_truncation_sized_arrays_are_capped(monkeypatch, build, floats):
    # a cap patched low: an array of exactly the cap builds, one truncation
    # more is refused before it is allocated
    n = 6
    monkeypatch.setattr(errors, "MAX_SNAPSHOT_FLOATS", floats(n))
    build(n)
    with pytest.raises(CapacityError):
        build(n + 1)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_quadrature_gram_is_capped_by_its_rule():
    # the first Gauss-Laguerre rule with a non-finite node or weight is
    # refused by name, before any sum, without a warning and under the
    # floating-point errors cli.evaluate raises; one node fewer builds.
    # numpy 2.4.6's laggauss overflows from 187 nodes (n_max 186); where it
    # does depends on numpy and LAPACK, so the count is found, not pinned
    with np.errstate(all="ignore"):
        nodes = next(n for n in range(1, 400) if not np.isfinite(
            np.polynomial.laguerre.laggauss(n)).all())
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        g = gram_quadrature(nodes - 2, 1.0)
        assert np.max(np.abs(g - np.eye(nodes - 1))) < 1e-10
        with pytest.raises(CapacityError,
                           match=f"{nodes}-node Gauss-Laguerre rule"):
            gram_quadrature(nodes - 1, 1.0)
