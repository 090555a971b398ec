"""Exact Poisson brackets of linear observables and the leapfrog point
dynamics.

A linear observable a q + b p is its coefficient pair (a, b) over
Q(i, sqrt2), so the bracket identities are asserted on the four Fraction
parts of each value, not with tolerances; tolerances only appear once
floating-point integration enters.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from thermofock.errors import StabilityError
from thermofock.exact import SqrtTwoComplex
from thermofock.fits import fit_loglog_slope
from thermofock.phasespace import (
    P,
    Q,
    Z,
    ZBAR,
    OscillatorParams,
    PhasePoint,
    hamilton_orbit,
    hamilton_step,
    poisson_bracket,
)


def _parts(x):
    return (x.ar, x.ai, x.br, x.bi)


def _random_coefficient(rng):
    """A Gaussian rational plus a Gaussian rational times sqrt2."""
    return SqrtTwoComplex(*(Fraction(int(rng.integers(-9, 10)),
                                     int(rng.integers(1, 6)))
                            for _ in range(4)))


def _random_pair(rng):
    return (_random_coefficient(rng), _random_coefficient(rng))


def _combine(a, f, b, g):
    """The linear observable a f + b g."""
    return (a * f[0] + b * g[0], a * f[1] + b * g[1])


# -- exact bracket identities -------------------------------------------------

def test_canonical_pair_bracket():
    assert _parts(poisson_bracket(Q, P)) == (1, 0, 0, 0)
    assert _parts(poisson_bracket(P, Q)) == (-1, 0, 0, 0)
    assert _parts(poisson_bracket(Q, Q)) == (0, 0, 0, 0)


def test_zbar_z_bracket_is_i():
    # {zbar, z}_(q,p) = i and {z, zbar} = -i, exactly, including the 1/sqrt2
    # factors
    assert _parts(poisson_bracket(ZBAR, Z)) == (0, 1, 0, 0)
    assert _parts(poisson_bracket(Z, ZBAR)) == (0, -1, 0, 0)


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f, g, h = _random_pair(rng), _random_pair(rng), _random_pair(rng)
        a, b = _random_coefficient(rng), _random_coefficient(rng)
        assert _parts(poisson_bracket(f, g)) == _parts(-poisson_bracket(g, f))
        assert _parts(poisson_bracket(f, _combine(a, g, b, h))) == _parts(
            a * poisson_bracket(f, g) + b * poisson_bracket(f, h))


def test_round_trip_is_the_identity():
    # q = (z + zbar)/sqrt2 and p = -i (z - zbar)/sqrt2 recover the pair exactly
    inv_sqrt2 = SqrtTwoComplex(0, 0, Fraction(1, 2))
    minus_i_inv_sqrt2 = SqrtTwoComplex(0, 0, 0, Fraction(-1, 2))
    for k in range(2):
        assert _parts((Z[k] + ZBAR[k]) * inv_sqrt2) == _parts(Q[k])
        assert _parts((Z[k] - ZBAR[k]) * minus_i_inv_sqrt2) == _parts(P[k])


def test_bracket_commutes_with_coordinate_change():
    # on linear functions of z, zbar the canonical bracket is
    # -i (dF/dz dG/dzbar - dF/dzbar dG/dz): for F = a z + b zbar and
    # G = c z + d zbar that is -i (a d - b c), exactly
    rng = np.random.default_rng(5)
    minus_i = SqrtTwoComplex(0, -1)
    for _ in range(10):
        a, b, c, d = (_random_coefficient(rng) for _ in range(4))
        bracket = poisson_bracket(_combine(a, Z, b, ZBAR),
                                  _combine(c, Z, d, ZBAR))
        assert _parts(bracket) == _parts(minus_i * (a * d - b * c))


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
