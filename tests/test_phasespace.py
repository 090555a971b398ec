"""Exact Poisson-bracket algebra and the leapfrog point dynamics.

The bracket layer works over Q(i, sqrt2), so the classic identities are
asserted as exact polynomial equality, not with tolerances; tolerances only
appear once floating-point integration enters.
"""

import math

import numpy as np
import pytest

from thermofock.errors import CapacityError, StabilityError
from thermofock.exact import SqrtTwoComplex
from thermofock.fits import fit_loglog_slope
from thermofock.phasespace import (
    OscillatorParams,
    PhasePoint,
    PhasePolynomial,
    PhaseRing,
    constant,
    hamilton_orbit,
    hamilton_step,
    poisson_bracket,
    variable,
    z_element,
    zbar_element,
)


def _random_poly(ring, rng, n_terms=4, max_exp=2):
    """Small random integer-coefficient polynomial for identity checks."""
    nvars = len(ring.variables)
    out = constant(ring, int(rng.integers(-3, 4)))
    for _ in range(n_terms):
        expo = tuple(int(e) for e in rng.integers(0, max_exp + 1, nvars))
        out = out + PhasePolynomial(ring, {expo: int(rng.integers(-3, 4))})
    return out


def _oscillator_hamiltonian(ring, omega):
    """H = omega/2 (q^2 + p^2) on the ring's one pair."""
    q, p = variable(ring, "q"), variable(ring, "p")
    return (q * q + p * p) * (SqrtTwoComplex.coerce(omega) / 2)


# -- exact bracket identities -------------------------------------------------

def test_canonical_pair_bracket():
    ring = PhaseRing.canonical()
    q = variable(ring, "q")
    p = variable(ring, "p")
    one = constant(ring, 1)
    assert poisson_bracket(q, p) == one
    assert poisson_bracket(p, q) == one * (-1)
    assert poisson_bracket(q, q).is_zero


def test_zbar_z_bracket_is_i():
    # {zbar, z}_(q,p) = i, exactly, including the 1/sqrt2 factors
    ring = PhaseRing.canonical()
    z = z_element(ring)
    zb = zbar_element(ring)
    bracket = poisson_bracket(zb, z)
    assert bracket == constant(ring, SqrtTwoComplex.I)


def test_hamiltonian_rotates_z():
    # {z, H} = -i w z: the generator of clockwise rotation in the z plane
    ring = PhaseRing.canonical()
    z = z_element(ring)
    h = _oscillator_hamiltonian(ring, 2.0)
    assert poisson_bracket(z, h) == z * (-2j)
    zb = zbar_element(ring)
    assert poisson_bracket(zb, h) == zb * 2j


def test_bracket_antisymmetry_and_leibniz():
    rng = np.random.default_rng(0)
    ring = PhaseRing(("q1", "p1", "q2", "p2"), ((0, 1), (2, 3)))
    for _ in range(20):
        # low-degree factors keep the g*h product inside the ring's cap
        f = _random_poly(ring, rng, max_exp=1)
        g = _random_poly(ring, rng, max_exp=1)
        h = _random_poly(ring, rng, max_exp=1)
        assert (poisson_bracket(f, g) + poisson_bracket(g, f)).is_zero
        leibniz = poisson_bracket(f, g * h) - (
            poisson_bracket(f, g) * h + g * poisson_bracket(f, h)
        )
        assert leibniz.is_zero


def test_jacobi_identity_exact():
    rng = np.random.default_rng(1)
    ring = PhaseRing.canonical()
    for _ in range(20):
        f = _random_poly(ring, rng)
        g = _random_poly(ring, rng)
        h = _random_poly(ring, rng)
        total = (
            poisson_bracket(f, poisson_bracket(g, h))
            + poisson_bracket(g, poisson_bracket(h, f))
            + poisson_bracket(h, poisson_bracket(f, g))
        )
        assert total.is_zero


# -- complex coordinates ------------------------------------------------------

def test_round_trip_is_the_identity():
    # q = (z + zbar)/sqrt2 and p = -i (z - zbar)/sqrt2 recover the pair exactly
    ring = PhaseRing.canonical()
    inv_sqrt2 = SqrtTwoComplex.INV_SQRT2
    z, zb = z_element(ring), zbar_element(ring)
    assert (z + zb) * inv_sqrt2 == variable(ring, "q")
    assert (z - zb) * (-SqrtTwoComplex.I * inv_sqrt2) == variable(ring, "p")


def test_bracket_commutes_with_coordinate_change():
    # on functions of z, zbar the canonical bracket is
    # -i (dF/dz dG/dzbar - dF/dzbar dG/dz); for monomials z^a zbar^b that is
    # -i (a d - b c) z^(a+c-1) zbar^(b+d-1), exactly
    ring = PhaseRing.canonical()
    z, zb = z_element(ring), zbar_element(ring)
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c, d = (int(e) for e in rng.integers(0, 4, 4))
        bracket = poisson_bracket(z ** a * zb ** b, z ** c * zb ** d)
        if a + c == 0 or b + d == 0:
            assert bracket.is_zero
            continue
        expected = z ** (a + c - 1) * zb ** (b + d - 1) * (-1j * (a * d - b * c))
        assert bracket == expected


def test_hamiltonian_is_omega_zbar_z_in_normal_coordinates():
    ring = PhaseRing.canonical()
    for omega in (1.0, 0.75):
        h = _oscillator_hamiltonian(ring, omega)
        assert h == zbar_element(ring) * z_element(ring) * omega


def test_degree_cap_raises_capacity_error():
    ring = PhaseRing(("q", "p"), ((0, 1),), degree_cap=4)
    q = variable(ring, "q")
    with pytest.raises(CapacityError):
        (q ** 2) * (q ** 3)


# -- point dynamics -----------------------------------------------------------

def test_leapfrog_returns_after_one_period():
    params = OscillatorParams(math.sqrt(2.0))
    n = 4096
    dt = params.period / n
    x = PhasePoint(0.7, -0.2)
    y = x
    for _ in range(n):
        y = hamilton_step(y, params, dt)
    assert y.q == pytest.approx(x.q, abs=5e-6)
    assert y.p == pytest.approx(x.p, abs=5e-6)


def test_energy_error_scales_as_dt_squared():
    params = OscillatorParams(1.0)
    x0 = PhasePoint(1.0, 0.0)

    def oscillator_energy(q, p):
        return 0.5 * params.omega * (q ** 2 + p ** 2)

    e0 = oscillator_energy(*x0)
    dts = np.array([1e-3 * 2 ** k for k in range(6)])
    errs = []
    for dt in dts:
        n = int(round(1.0 / dt))
        _, qs, ps = hamilton_orbit(x0, params, dt, n)
        e = oscillator_energy(qs[-1], ps[-1])
        errs.append(abs(e - e0))
    slope = fit_loglog_slope(dts, np.array(errs))
    assert slope == pytest.approx(2.0, abs=0.1)


def test_friction_contracts_areas_exactly_per_step():
    # the two half-step decays make the one-step Jacobian e^{-alpha dt}
    params = OscillatorParams(1.3)
    alpha, dt = 0.21, 0.037
    eps = 1e-7

    def step(q, p):
        out = hamilton_step(PhasePoint(q, p), params, dt, friction=alpha)
        return out.q, out.p

    q0, p0 = 0.4, -0.9
    fq_q = (step(q0 + eps, p0)[0] - step(q0 - eps, p0)[0]) / (2 * eps)
    fq_p = (step(q0, p0 + eps)[0] - step(q0, p0 - eps)[0]) / (2 * eps)
    fp_q = (step(q0 + eps, p0)[1] - step(q0 - eps, p0)[1]) / (2 * eps)
    fp_p = (step(q0, p0 + eps)[1] - step(q0, p0 - eps)[1]) / (2 * eps)
    jac = fq_q * fp_p - fq_p * fp_q
    assert jac == pytest.approx(math.exp(-alpha * dt), rel=1e-6)


def test_frictionless_step_matches_friction_zero_bitwise():
    params = OscillatorParams(0.8)
    x = PhasePoint(0.3, 1.1)
    a = hamilton_step(x, params, 0.05)
    b = hamilton_step(x, params, 0.05, friction=0.0)
    assert a == b


def test_orbit_sampling_and_stride():
    params = OscillatorParams(1.0)
    times, qs, ps = hamilton_orbit(PhasePoint(1.0, 0.0), params, 0.01, 100, stride=10)
    assert times.shape == qs.shape == ps.shape == (11,)
    np.testing.assert_allclose(np.diff(times), 0.1, rtol=1e-12)


def test_phase_point_to_z():
    x = PhasePoint(0.6, -1.7)
    assert x.to_z() == pytest.approx(complex(0.6, -1.7) / math.sqrt(2.0))


def test_oscillator_params_validation(usage_error):
    # every OscillatorParams takes --omega; omega = 0 has no period and no
    # half-quantum
    for argv in (["commutator", "--omega", "-1"],
                 ["evolve", "--seed", "1", "--omega", "inf"],
                 ["damp", "--omega", "0"],
                 ["ensemble", "--seed", "1", "--omega", "nan"]):
        usage_error(argv, "--omega")
    p = OscillatorParams(2.0)
    assert p.period == pytest.approx(math.pi)


def test_hamilton_step_rejects_bad_arguments(usage_error):
    # the steps and frictions the CLI hands to the leapfrog: --dt > 0 and
    # --alpha >= 0
    usage_error(["damp", "--dt", "0"], "--dt")
    usage_error(["ensemble", "--seed", "1", "--alpha", "-1"], "--alpha")


@pytest.mark.parametrize("dt", [2.0, 2.5, 1e3])
def test_hamilton_orbit_refuses_steps_past_the_stability_bound(dt):
    # w dt >= 2 makes the leapfrog linearly unstable; just below it is not
    params = OscillatorParams(1.0)
    with pytest.raises(StabilityError):
        hamilton_orbit(PhasePoint(1.0, 0.0), params, dt, 10)
    _, qs, ps = hamilton_orbit(PhasePoint(1.0, 0.0), params,
                               np.nextafter(2.0, 0.0), 10)
    assert np.all(np.isfinite(qs)) and np.all(np.isfinite(ps))
