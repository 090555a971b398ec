"""Exact arithmetic in Q(i, sqrt2): the coefficient field under the brackets.

Values are compared by their four Fraction parts."""

import math
from fractions import Fraction

import pytest

from thermofock.exact import SqrtTwoComplex


def _parts(x):
    return (x.ar, x.ai, x.br, x.bi)


def test_construction_and_complex_value():
    x = SqrtTwoComplex(1, 2, 3, 4)  # 1 + 2i + (3 + 4i) sqrt2
    val = complex(x)
    s = math.sqrt(2.0)
    assert val == pytest.approx(complex(1 + 3 * s, 2 + 4 * s))
    assert _parts(SqrtTwoComplex(Fraction(1, 4))) == (Fraction(1, 4), 0, 0, 0)
    with pytest.raises(TypeError):
        SqrtTwoComplex(0.375)


def test_sqrt2_squares_to_two_exactly():
    r = SqrtTwoComplex(0, 0, 1, 0)
    assert _parts(r * r) == (2, 0, 0, 0)
    # the whole point of the field: no fl(1/sqrt2)^2 != 1/2 leak
    inv = SqrtTwoComplex(0, 0, Fraction(1, 2))
    assert _parts(inv * inv * SqrtTwoComplex(2)) == (1, 0, 0, 0)


def test_ring_axioms_on_a_sample():
    a = SqrtTwoComplex(1, -2, Fraction(1, 3), 0)
    b = SqrtTwoComplex(0, 1, 2, Fraction(-1, 2))
    c = SqrtTwoComplex(Fraction(5, 7), 0, 0, 1)
    assert _parts((a + b) * c) == _parts(a * c + b * c)
    assert _parts(a * b) == _parts(b * a)
    assert _parts(a - a) == (0, 0, 0, 0)
    assert _parts(-(a - b)) == _parts(b - a)
    assert _parts(a * SqrtTwoComplex(1)) == _parts(a)
