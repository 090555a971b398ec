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
import tracemalloc

import numpy as np
import pytest

from thermofock import bargmann, errors
from thermofock.bargmann import (
    FockVector,
    coherent_vector,
    commutator,
    gram_montecarlo,
    gram_quadrature,
    hamiltonian_matrix,
    kernel_eval,
    lowering_matrix,
    quadrature_operators,
)
from thermofock.errors import CapacityError, TruncationError
from thermofock.phasespace import OscillatorParams


# -- Gram matrices ------------------------------------------------------------

def test_quadrature_gram_is_identity():
    for hbar in (1.0, 0.5, 2.5):
        g = gram_quadrature(12, hbar)
        np.testing.assert_allclose(g, np.eye(13), atol=1e-12)


def test_quadrature_gram_identity_large_truncation():
    g = gram_quadrature(16, 1.0)
    assert np.max(np.abs(g - np.eye(17))) < 1e-10


def test_laguerre_rule_matches_scipy():
    special = pytest.importorskip("scipy.special")
    for n in range(1, 162):
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
                                                (3, 0.4, 4097)])
def test_montecarlo_gram_matches_unblocked_reference(n_max, hbar, samples):
    # same draws; only the summation order of the block products differs
    mean, se = gram_montecarlo(n_max, hbar, samples, seed=5)
    ref_mean, ref_se = _unblocked_gram_montecarlo(n_max, hbar, samples, 5)
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-12)
    np.testing.assert_allclose(se, ref_se, rtol=1e-12)


@pytest.mark.parametrize("samples", [100_000, 300_000])
def test_montecarlo_gram_memory_is_bounded(samples):
    # one 100 000-draw chunk plus one (n_max + 1) x _POINT_BLOCK basis block;
    # a basis matrix over a whole chunk would alone take 26 MiB here
    tracemalloc.start()
    try:
        gram_montecarlo(16, 1.0, samples, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_montecarlo_gram_draws_as_before():
    # sha256 of (G, se), pinned from the estimator that formed each chunk as
    # a + 1j b; 200 001 samples end on a one-point chunk
    mean, se = gram_montecarlo(8, 0.7, 200_001, 3)
    assert hashlib.sha256(mean.tobytes() + se.tobytes()).hexdigest() == (
        "c78c7b2f1bcec8a1f9de595e6120e5aa725f7bf707b052497e0f5c3b3a9c8bb9")


def test_montecarlo_gram_at_a01_samples_holds_one_chunk_buffer():
    # a chunk's 0.76 MiB of real draws and one block's fixed buffers, the
    # basis and its conjugate at 1.06 MiB each: 3.0 MiB; a chunk's complex
    # buffer and per-block temporaries took 4.1 MiB, forming a + 1j b 6.27
    tracemalloc.start()
    try:
        gram_montecarlo(16, 1.0, 10 ** 6, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * 2 ** 20


def test_montecarlo_gram_requires_seed(usage_error):
    # Monte Carlo without a seed is refused before gram_montecarlo runs
    usage_error(["gram", "--samples", "1000"], "--seed")


# -- coherent states ----------------------------------------------------------

def test_coherent_pairing_oracle():
    # (f_a, f_b) = exp(hbar conj(a) b), paired in the orthonormal basis
    hbar = 0.7
    for a, b in [(0.5, 0.5), (0.3 + 0.4j, -0.2 + 0.1j), (1.0, 1j)]:
        fa = coherent_vector(a, 40, hbar)
        fb = coherent_vector(b, 40, hbar)
        expected = np.exp(hbar * np.conj(a) * b)
        assert np.vdot(fa.coeffs, fb.coeffs) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("amp", [0.5, -0.5, 0.3 - 0.4j, -0.3 + 0.4j,
                                 complex(-0.0, -0.5), 0j, 1e-320])
def test_coherent_coefficients_past_underflow_are_bit_identical(amp):
    # the recurrence stops 15 steps past the first exact zero and repeats
    # the last 12 values; the signs of the zeros must come out the same
    def recurrence(n_max):
        coeffs = np.empty(n_max + 1, dtype=complex)
        coeffs[0] = 1.0
        for n in range(1, n_max + 1):
            coeffs[n] = coeffs[n - 1] * amp / math.sqrt(n)
        return coeffs

    for n_max in (0, 3, 40, 700, 1501):
        assert (bargmann._coherent_coeffs(amp, n_max).tobytes()
                == recurrence(n_max).tobytes()), n_max


def test_coherent_norm_and_tail_mass():
    c, hbar = 0.5, 1.0
    f = coherent_vector(c, 32, hbar)
    full = math.exp(hbar * abs(c) ** 2)
    assert f.norm() ** 2 + f.tail_mass == pytest.approx(full, rel=1e-12)
    assert f.tail_mass < 1e-30   # truncation 32 is far past the mass of c=0.5


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


@pytest.mark.parametrize("points", [0, 1, bargmann._POINT_BLOCK - 1,
                                    bargmann._POINT_BLOCK,
                                    bargmann._POINT_BLOCK + 1,
                                    3 * bargmann._POINT_BLOCK + 7])
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
    grid = rng.standard_normal((3, bargmann._POINT_BLOCK // 2 + 5)) + 1j
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


def test_evaluate_allocates_no_basis_matrix():
    # the (nmax + 1) x points basis matrix alone would be 33 z.nbytes here
    f = coherent_vector(0.6, 32, 1.0)
    rng = np.random.default_rng(1)
    z = rng.standard_normal(100_000) + 1j * rng.standard_normal(100_000)
    tracemalloc.start()
    try:
        values = f.evaluate(z)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
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
    params = OscillatorParams(1.0)
    h_norm = hamiltonian_matrix("normal", params, 1.0, 24)
    h_sym = hamiltonian_matrix("symmetric", params, 1.0, 24)
    gap = h_sym - h_norm
    # additive construction at hbar*omega = 1: the difference is exact
    np.testing.assert_array_equal(gap, 0.5 * np.eye(25))


def test_ordering_gap_generic_frequency():
    params = OscillatorParams(math.pi)
    hbar = 0.37
    h_norm = hamiltonian_matrix("normal", params, hbar, 10)
    h_sym = hamiltonian_matrix("symmetric", params, hbar, 10)
    # generic hbar*omega: the additive construction leaves at most 1 ulp
    np.testing.assert_allclose(h_sym - h_norm,
                               0.5 * hbar * math.pi * np.eye(11), rtol=4e-15)


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
    (lambda n: hamiltonian_matrix("normal", OscillatorParams(1.0), 1.0, n),
     lambda n: 2 * (n + 1) ** 2),
    (lambda n: coherent_vector(0.5, n).coeffs, lambda n: 2 * (n + 1)),
    # the basis behind the Gram matrix: n + 1 rows over the quadrature grid
    (lambda n: gram_quadrature(n, 1.0),
     lambda n: 2 * (n + 1) * bargmann._quad_grid(1.0, n)[0].size),
], ids=["lowering", "hamiltonian", "coherent", "gram-basis"])
def test_truncation_sized_arrays_are_capped(monkeypatch, build, floats):
    # a cap patched low: an array of exactly the cap builds, one truncation
    # more is refused before it is allocated
    n = 6
    monkeypatch.setattr(errors, "MAX_SNAPSHOT_FLOATS", floats(n))
    build(n)
    with pytest.raises(CapacityError):
        build(n + 1)
