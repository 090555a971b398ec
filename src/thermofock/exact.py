"""Exact arithmetic over the field Q(i, sqrt2).

sqrt2 enters the canonical brackets only through the complex coordinate
z = (q + i p)/sqrt2, on top of Gaussian rationals, so every coefficient of
a linear observable in q and p lives in the field
{(a + b*sqrt2) : a, b Gaussian rational}.  Keeping the four rational
components explicit makes {q, p} = 1 and {z, zbar} = -i equalities of
Fractions instead of floating-point values within a tolerance.

A linear observable a q + b p is its coefficient pair (a, b): the constants
Q, P, Z and ZBAR here, whose Poisson brackets (`phasespace.poisson_bracket`)
are the commutator targets of `thermofock commutator`.  Only that command
loads this module, and with it `fractions`.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["SqrtTwoComplex", "Q", "P", "Z", "ZBAR"]

_SQRT2 = math.sqrt(2.0)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to an exact coefficient")


def _cmul(xr, xi, yr, yi):
    """Product of two Gaussian rationals given as (re, im) Fractions."""
    return xr * yr - xi * yi, xr * yi + xi * yr


class SqrtTwoComplex:
    """A number (ar + ai*i) + (br + bi*i)*sqrt(2) with Fraction parts."""

    __slots__ = ("ar", "ai", "br", "bi")

    def __init__(self, ar=0, ai=0, br=0, bi=0):
        self.ar = _frac(ar)
        self.ai = _frac(ai)
        self.br = _frac(br)
        self.bi = _frac(bi)

    def __complex__(self) -> complex:
        return complex(
            float(self.ar) + float(self.br) * _SQRT2,
            float(self.ai) + float(self.bi) * _SQRT2,
        )

    def __add__(self, other):
        return SqrtTwoComplex(
            self.ar + other.ar, self.ai + other.ai,
            self.br + other.br, self.bi + other.bi,
        )

    def __neg__(self):
        return SqrtTwoComplex(-self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        # (a1 + b1 s)(a2 + b2 s) = (a1 a2 + 2 b1 b2) + (a1 b2 + b1 a2) s
        ar, ai = _cmul(self.ar, self.ai, other.ar, other.ai)
        wr, wi = _cmul(self.br, self.bi, other.br, other.bi)
        ur, ui = _cmul(self.ar, self.ai, other.br, other.bi)
        vr, vi = _cmul(self.br, self.bi, other.ar, other.ai)
        return SqrtTwoComplex(ar + 2 * wr, ai + 2 * wi, ur + vr, ui + vi)


# (coefficient of q, coefficient of p); sqrt2/2 is SqrtTwoComplex(0, 0, 1/2)
Q = (SqrtTwoComplex(1), SqrtTwoComplex(0))
P = (SqrtTwoComplex(0), SqrtTwoComplex(1))
Z = (SqrtTwoComplex(0, 0, Fraction(1, 2)),           # (q + i p)/sqrt2
     SqrtTwoComplex(0, 0, 0, Fraction(1, 2)))
ZBAR = (SqrtTwoComplex(0, 0, Fraction(1, 2)),        # (q - i p)/sqrt2
        SqrtTwoComplex(0, 0, 0, Fraction(-1, 2)))
