"""Exact Poisson brackets of linear observables and the leapfrog map of one
oscillator.

A linear observable a q + b p is its coefficient pair (a, b) of Gaussian
integers, so the bracket identities are exact equalities of Python complex
values, not tolerances; tolerances only appear once floating-point
integration enters.
"""

import math
import signal

import numpy as np
import pytest

from thermofock import bargmann, cli
from thermofock.errors import StabilityError
from thermofock.exact import SQRT2_Z, SQRT2_ZBAR, P, Q
from thermofock.fits import fit_loglog_slope
from thermofock.phasespace import leapfrog_map, poisson_bracket


def _random_coefficient(rng):
    """A Gaussian integer with parts in [-9, 9]."""
    return complex(*rng.integers(-9, 10, size=2).tolist())


def _random_pair(rng):
    return (_random_coefficient(rng), _random_coefficient(rng))


def _combine(a, f, b, g):
    """The linear observable a f + b g."""
    return (a * f[0] + b * g[0], a * f[1] + b * g[1])


# -- exact bracket identities -------------------------------------------------

def test_canonical_pair_bracket():
    assert poisson_bracket(Q, P) == 1
    assert poisson_bracket(P, Q) == -1
    assert poisson_bracket(Q, Q) == 0


def test_zbar_z_bracket_is_i():
    # {zbar, z}_(q,p) = i and {z, zbar} = -i, exactly: the sqrt2-scaled
    # brackets are 2i and -2i, and halving them rounds nothing
    assert poisson_bracket(SQRT2_ZBAR, SQRT2_Z) / 2 == 1j
    assert poisson_bracket(SQRT2_Z, SQRT2_ZBAR) / 2 == -1j


def test_bracket_antisymmetry_and_bilinearity():
    rng = np.random.default_rng(0)
    for _ in range(20):
        f, g, h = _random_pair(rng), _random_pair(rng), _random_pair(rng)
        a, b = _random_coefficient(rng), _random_coefficient(rng)
        assert poisson_bracket(f, g) == -poisson_bracket(g, f)
        assert poisson_bracket(f, _combine(a, g, b, h)) == (
            a * poisson_bracket(f, g) + b * poisson_bracket(f, h))


def test_round_trip_is_the_identity():
    # q = (z + zbar)/sqrt2 and p = -i (z - zbar)/sqrt2 recover the pair
    # exactly: on the sqrt2-scaled pairs, halves of a sum and a difference
    for k in range(2):
        assert (SQRT2_Z[k] + SQRT2_ZBAR[k]) / 2 == Q[k]
        assert -1j * (SQRT2_Z[k] - SQRT2_ZBAR[k]) / 2 == P[k]


def test_bracket_commutes_with_coordinate_change():
    # on linear functions of z, zbar the canonical bracket is
    # -i (dF/dz dG/dzbar - dF/dzbar dG/dz): for F = a z + b zbar and
    # G = c z + d zbar that is -i (a d - b c), exactly; with the sqrt2-scaled
    # pairs both sides carry a factor 2
    rng = np.random.default_rng(5)
    for _ in range(10):
        a, b, c, d = (_random_coefficient(rng) for _ in range(4))
        bracket = poisson_bracket(_combine(a, SQRT2_Z, b, SQRT2_ZBAR),
                                  _combine(c, SQRT2_Z, d, SQRT2_ZBAR))
        assert bracket == -2j * (a * d - b * c)


@pytest.mark.parametrize("hbar", [1.0, 0.3, 1e-300, 1e300])
def test_commutator_dirac_targets_are_hbar_and_i_hbar(hbar, monkeypatch):
    # the runner subtracts i hbar {z, zbar} I and i hbar {q, p} I from its
    # two commutators; standing in zero matrices that record what is
    # subtracted from them reads those targets bit for bit
    targets = []

    class Recording(np.ndarray):
        def __sub__(self, other):
            targets.append(other)
            return np.asarray(self) - other

    def commutator(a, b):
        return np.zeros(a.shape, dtype=complex).view(Recording)

    monkeypatch.setattr(bargmann, "commutator", commutator)
    nmax = 8
    cli.evaluate(cli.build_parser().parse_args(
        ["commutator", "--hbar", repr(hbar), "--nmax", str(nmax)]))
    identity = np.eye(nmax + 1, dtype=complex)
    assert [t.tobytes() for t in targets] == [
        (hbar * identity).tobytes(), (1j * hbar * identity).tobytes()]


# -- the leapfrog map ----------------------------------------------------------

def test_leapfrog_returns_after_one_period():
    omega = math.sqrt(2.0)
    n = 4096
    dt = 2 * math.pi / omega / n
    q, p = 0.7, -0.2
    (m00, m01), (m10, m11) = leapfrog_map(omega, dt, n)
    assert m00 * q + m01 * p == pytest.approx(q, abs=5e-6)
    assert m10 * q + m11 * p == pytest.approx(p, abs=5e-6)


def test_energy_error_scales_as_dt_squared():
    omega = 1.0
    q0, p0 = 1.0, 0.0

    def oscillator_energy(q, p):
        return 0.5 * omega * (q ** 2 + p ** 2)

    e0 = oscillator_energy(q0, p0)
    dts = np.array([1e-3 * 2 ** k for k in range(6)])
    errs = []
    for dt in dts:
        n = int(round(1.0 / dt))
        (m00, m01), (m10, m11) = leapfrog_map(omega, dt, n)
        e = oscillator_energy(m00 * q0 + m01 * p0, m10 * q0 + m11 * p0)
        errs.append(abs(e - e0))
    slope = fit_loglog_slope(dts, np.array(errs))
    assert slope == pytest.approx(2.0, abs=0.1)


def test_friction_contracts_areas_exactly_per_step():
    # the two half-step decays make the one-step determinant e^{-alpha dt};
    # the kicks and the drift are shears, of determinant 1
    alpha, dt = 0.21, 0.037
    (m00, m01), (m10, m11) = leapfrog_map(1.3, dt, 1, friction=alpha)
    assert m00 * m11 - m01 * m10 == pytest.approx(math.exp(-alpha * dt),
                                                  rel=1e-12)


def test_frictionless_step_matches_friction_zero_bitwise():
    for n in (1, 7):
        a = leapfrog_map(0.8, 0.05, n)
        b = leapfrog_map(0.8, 0.05, n, friction=0.0)
        assert [x.hex() for row in a for x in row] == [
            x.hex() for row in b for x in row]


def test_orbit_sampling_and_stride():
    # damp samples its orbit every 4th step and at the last one: 1019 steps
    # at --alpha 0.2, so 254 full strides and a last stride of 3 steps, each
    # snapshot the one before moved by its stride's leapfrog map
    outcome = cli.evaluate(cli.build_parser().parse_args(
        ["damp", "--alpha", "0.2"]))
    table, = outcome.tables.values()
    t, q, p = (table[name] for name in ("t", "q_leapfrog", "p_leapfrog"))
    dt = 2 * math.pi / 256
    steps = np.r_[np.arange(0, 1017, 4), 1019]
    assert t.tobytes() == (steps * dt).tobytes()
    full, last = (leapfrog_map(1.0, dt, n, friction=0.2) for n in (4, 3))
    x, y = 1.0, 0.0
    for k in range(1, t.size):
        (m00, m01), (m10, m11) = full if k < t.size - 1 else last
        x, y = m00 * x + m01 * y, m10 * x + m11 * y
        assert (q[k], p[k]) == (x, y)


def test_omega_validation(usage_error):
    # every single-oscillator run takes --omega; omega = 0 has no period and
    # no half-quantum
    for argv in (["commutator", "--omega", "-1"],
                 ["evolve", "--seed", "1", "--omega", "inf"],
                 ["damp", "--omega", "0"],
                 ["ensemble", "--seed", "1", "--omega", "nan"]):
        usage_error(argv, "--omega")


def test_hamilton_step_rejects_bad_arguments(usage_error):
    # the steps and frictions the CLI hands to the leapfrog: --dt > 0 and
    # --alpha >= 0
    usage_error(["damp", "--dt", "0"], "--dt")
    usage_error(["ensemble", "--seed", "1", "--alpha", "-1"], "--alpha")


@pytest.mark.parametrize("dt", [2.0, 2.5, 1e3])
def test_leapfrog_map_refuses_steps_past_the_stability_bound(dt):
    # w dt >= 2 makes the leapfrog linearly unstable; just below it is not
    with pytest.raises(StabilityError):
        leapfrog_map(1.0, dt, 10)
    m = leapfrog_map(1.0, np.nextafter(2.0, 0.0), 10)
    assert np.all(np.isfinite(m))


def test_leapfrog_map_refuses_an_unstable_step_at_once():
    # the refusal comes before the first of 10**18 steps: an alarm after a
    # second stops a map that steps first
    def stepping(*_):
        raise AssertionError("leapfrog_map stepped before it refused")

    previous = signal.signal(signal.SIGALRM, stepping)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(StabilityError):
            leapfrog_map(1.0, 2.0, 10 ** 18)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
