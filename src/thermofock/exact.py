"""Exact arithmetic over the field Q(i, sqrt2).

sqrt2 enters the phase-space algebra only through the complex coordinate
z = (q + i p)/sqrt2, on top of Gaussian rationals, so every coefficient a
polynomial in q, p, z and zbar can carry lives in the field
{(a + b*sqrt2) : a, b Gaussian rational}.  Keeping the four rational
components explicit makes algebraic identities (bracket antisymmetry, Jacobi,
{z, zbar} = -i) decidable by equality instead of by floating-point
tolerance.  Floats entering from user input are dyadic rationals and convert
exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = ["SqrtTwoComplex"]

_SQRT2 = math.sqrt(2.0)


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # binary floats are dyadic rationals; this conversion is exact
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

    @classmethod
    def coerce(cls, value) -> "SqrtTwoComplex":
        if isinstance(value, SqrtTwoComplex):
            return value
        if isinstance(value, complex):
            return cls(_frac(value.real), _frac(value.imag))
        return cls(_frac(value))

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not (self.ar or self.ai or self.br or self.bi)

    def __complex__(self) -> complex:
        return complex(
            float(self.ar) + float(self.br) * _SQRT2,
            float(self.ai) + float(self.bi) * _SQRT2,
        )

    # ------------------------------------------------------------------
    def __add__(self, other):
        try:
            other = SqrtTwoComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return SqrtTwoComplex(
            self.ar + other.ar, self.ai + other.ai,
            self.br + other.br, self.bi + other.bi,
        )

    __radd__ = __add__

    def __neg__(self):
        return SqrtTwoComplex(-self.ar, -self.ai, -self.br, -self.bi)

    def __sub__(self, other):
        try:
            other = SqrtTwoComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return SqrtTwoComplex.coerce(other) - self

    def __mul__(self, other):
        try:
            other = SqrtTwoComplex.coerce(other)
        except TypeError:
            return NotImplemented
        # (a1 + b1 s)(a2 + b2 s) = (a1 a2 + 2 b1 b2) + (a1 b2 + b1 a2) s
        ar, ai = _cmul(self.ar, self.ai, other.ar, other.ai)
        wr, wi = _cmul(self.br, self.bi, other.br, other.bi)
        ur, ui = _cmul(self.ar, self.ai, other.br, other.bi)
        vr, vi = _cmul(self.br, self.bi, other.ar, other.ai)
        return SqrtTwoComplex(ar + 2 * wr, ai + 2 * wi, ur + vr, ui + vi)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # rational divisors only; z = (q + i p)/sqrt2 multiplies by sqrt2/2
        if isinstance(other, SqrtTwoComplex):
            return NotImplemented
        inv = 1 / _frac(other)
        return SqrtTwoComplex(self.ar * inv, self.ai * inv, self.br * inv, self.bi * inv)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers are exact")
        out = SqrtTwoComplex(1)
        for _ in range(n):
            out = out * self
        return out

    # ------------------------------------------------------------------
    def __eq__(self, other):
        try:
            other = SqrtTwoComplex.coerce(other)
        except TypeError:
            return NotImplemented
        return (self.ar, self.ai, self.br, self.bi) == (other.ar, other.ai, other.br, other.bi)

    def __hash__(self):
        return hash((self.ar, self.ai, self.br, self.bi))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return (f"SqrtTwoComplex({self.ar!s}, {self.ai!s}, {self.br!s}, {self.bi!s})")


SqrtTwoComplex.ZERO = SqrtTwoComplex()
SqrtTwoComplex.ONE = SqrtTwoComplex(1)
SqrtTwoComplex.I = SqrtTwoComplex(0, 1)
SqrtTwoComplex.SQRT2 = SqrtTwoComplex(0, 0, 1)
SqrtTwoComplex.INV_SQRT2 = SqrtTwoComplex(0, 0, Fraction(1, 2))  # sqrt2/2
