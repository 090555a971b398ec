"""Exact arithmetic in Q(i, sqrt2): the coefficient field under the brackets."""

import math
from fractions import Fraction

import pytest

from thermofock.exact import SqrtTwoComplex


def test_construction_and_complex_value():
    x = SqrtTwoComplex(1, 2, 3, 4)  # 1 + 2i + (3 + 4i) sqrt2
    val = complex(x)
    s = math.sqrt(2.0)
    assert val == pytest.approx(complex(1 + 3 * s, 2 + 4 * s))


def test_coerce_accepts_ints_fractions_gaussian():
    assert complex(SqrtTwoComplex.coerce(3)) == 3 + 0j
    assert complex(SqrtTwoComplex.coerce(Fraction(1, 4))) == 0.25
    assert complex(SqrtTwoComplex.coerce(2 + 5j)) == 2 + 5j


def test_sqrt2_squares_to_two_exactly():
    r = SqrtTwoComplex(0, 0, 1, 0)
    assert r * r == SqrtTwoComplex(2)
    # the whole point of the field: no fl(1/sqrt2)^2 != 1/2 leak
    inv = SqrtTwoComplex.INV_SQRT2
    assert inv * inv * 2 == SqrtTwoComplex(1)


def test_ring_axioms_on_a_sample():
    a = SqrtTwoComplex(1, -2, Fraction(1, 3), 0)
    b = SqrtTwoComplex(0, 1, 2, Fraction(-1, 2))
    c = SqrtTwoComplex(Fraction(5, 7), 0, 0, 1)
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert (a - a).is_zero
    assert a * SqrtTwoComplex(1) == a


def test_rational_division_inverts_multiplication():
    a = SqrtTwoComplex(3, 1, -1, Fraction(2, 5))
    assert (a / 3) * 3 == a
    assert a / Fraction(2, 7) == a * Fraction(7, 2)
    with pytest.raises(ZeroDivisionError):
        a / 0


def test_float_input_converts_exactly():
    # binary floats are dyadic rationals, so 0.375 carries no rounding
    assert SqrtTwoComplex(0.375) == SqrtTwoComplex(Fraction(3, 8))
    with pytest.raises(TypeError):
        SqrtTwoComplex("0.375")


def test_integer_powers():
    i = SqrtTwoComplex.I
    assert i ** 2 == SqrtTwoComplex(-1)
    assert i ** 4 == SqrtTwoComplex(1)
    a = SqrtTwoComplex(1, 1)
    assert a ** 3 == a * a * a
    assert a ** 0 == SqrtTwoComplex(1)


def test_equality_and_hash_agree():
    a = SqrtTwoComplex(2, 0, Fraction(1, 2), 0)
    b = SqrtTwoComplex(2) + SqrtTwoComplex.INV_SQRT2
    assert a == b
    assert hash(a) == hash(b)
