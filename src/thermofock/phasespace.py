"""Phase-space polynomial algebra, canonical brackets, and a leapfrog stepper.

Phase functions are explicit polynomials with exact coefficients in
Q(i, sqrt2) rather than black-box callables, so the canonical identities
(antisymmetry, Jacobi, {q, p} = 1, {z, zbar} = -i) hold as equalities, not
up to tolerance.

A ring fixes the variable names, the canonical pairs (q_k, p_k) read by the
Poisson bracket, and a total-degree cap.  The complex coordinates
z = (q + i p)/sqrt2 and zbar are degree-1 elements of such a ring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import MAX_SNAPSHOT_FLOATS, CapacityError, StabilityError
from .exact import SqrtTwoComplex

__all__ = [
    "PhaseRing",
    "PhasePolynomial",
    "PhasePoint",
    "OscillatorParams",
    "variable",
    "constant",
    "z_element",
    "zbar_element",
    "poisson_bracket",
    "hamilton_step",
    "hamilton_orbit",
]

_I = SqrtTwoComplex.I
_INV_SQRT2 = SqrtTwoComplex.INV_SQRT2

DEFAULT_DEGREE_CAP = 16


@dataclass(frozen=True)
class PhaseRing:
    """Variable names plus the canonical pairing entering the bracket."""

    variables: tuple
    pairs: tuple            # ((iq, ip), ...): bracket reads d/d[iq] then d/d[ip]
    degree_cap: int = DEFAULT_DEGREE_CAP

    @classmethod
    def canonical(cls) -> "PhaseRing":
        """The ring of one canonical pair (q, p)."""
        return cls(("q", "p"), ((0, 1),))

    def index(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise KeyError(f"no variable {name!r} in ring {self.variables}") from None


class PhasePolynomial:
    """Polynomial over a PhaseRing, coefficients exact in Q(i, sqrt2)."""

    __slots__ = ("ring", "_terms")

    def __init__(self, ring: PhaseRing, terms: Mapping[tuple, object]):
        nvars = len(ring.variables)
        clean = {}
        for expo, coeff in terms.items():
            c = SqrtTwoComplex.coerce(coeff)
            if c.is_zero:
                continue
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
            if sum(expo) > ring.degree_cap:
                raise CapacityError(
                    f"monomial degree {sum(expo)} exceeds ring cap {ring.degree_cap}"
                )
            clean[expo] = c
        self.ring = ring
        self._terms = clean

    # -- inspection ----------------------------------------------------
    def coefficient(self, exponents) -> SqrtTwoComplex:
        return self._terms.get(tuple(int(e) for e in exponents), SqrtTwoComplex.ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if not isinstance(other, PhasePolynomial):
            return NotImplemented
        return self.ring == other.ring and self._terms == other._terms

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self._terms.items(), key=lambda t: t[0]))))

    def __repr__(self):
        if self.is_zero:
            return "PhasePolynomial(0)"
        bits = []
        for expo, coeff in sorted(self._terms.items()):
            mono = "*".join(
                f"{v}^{e}" if e > 1 else v
                for v, e in zip(self.ring.variables, expo)
                if e
            )
            bits.append(f"({complex(coeff):.6g})*{mono}" if mono else f"({complex(coeff):.6g})")
        return "PhasePolynomial(" + " + ".join(bits) + ")"

    # -- ring operations -------------------------------------------------
    def _check_same_ring(self, other: "PhasePolynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials live on different rings")

    def __add__(self, other):
        if not isinstance(other, PhasePolynomial):
            other = constant(self.ring, other)
        self._check_same_ring(other)
        out = dict(self._terms)
        for expo, coeff in other._terms.items():
            out[expo] = out.get(expo, SqrtTwoComplex.ZERO) + coeff
        return PhasePolynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        return PhasePolynomial(self.ring, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, PhasePolynomial):
            other = constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return constant(self.ring, other) - self

    def __mul__(self, other):
        if not isinstance(other, PhasePolynomial):
            c = SqrtTwoComplex.coerce(other)
            return PhasePolynomial(self.ring, {e: k * c for e, k in self._terms.items()})
        self._check_same_ring(other)
        out: dict = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                expo = tuple(a + b for a, b in zip(e1, e2))
                if sum(expo) > self.ring.degree_cap:
                    raise CapacityError(
                        f"product degree {sum(expo)} exceeds ring cap "
                        f"{self.ring.degree_cap}"
                    )
                prev = out.get(expo)
                out[expo] = c1 * c2 if prev is None else prev + c1 * c2
        return PhasePolynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = constant(self.ring, 1)
        for _ in range(n):
            out = out * self
        return out

    def differentiate(self, name: str) -> "PhasePolynomial":
        idx = self.ring.index(name)
        out = {}
        for expo, coeff in self._terms.items():
            e = expo[idx]
            if e == 0:
                continue
            new = list(expo)
            new[idx] = e - 1
            key = tuple(new)
            term = coeff * e
            prev = out.get(key)
            out[key] = term if prev is None else prev + term
        return PhasePolynomial(self.ring, out)


# -- constructors --------------------------------------------------------

def constant(ring: PhaseRing, value) -> PhasePolynomial:
    zero = (0,) * len(ring.variables)
    return PhasePolynomial(ring, {zero: value})


def variable(ring: PhaseRing, name: str) -> PhasePolynomial:
    idx = ring.index(name)
    expo = tuple(1 if i == idx else 0 for i in range(len(ring.variables)))
    return PhasePolynomial(ring, {expo: 1})


def z_element(ring: PhaseRing) -> PhasePolynomial:
    """z = (q + i p)/sqrt2 of the first pair, a degree-1 element of the ring."""
    iq, ip = ring.pairs[0]
    q = variable(ring, ring.variables[iq])
    p = variable(ring, ring.variables[ip])
    return (q + p * _I) * _INV_SQRT2


def zbar_element(ring: PhaseRing) -> PhasePolynomial:
    """zbar = (q - i p)/sqrt2 of the first pair, a degree-1 element of the ring."""
    iq, ip = ring.pairs[0]
    q = variable(ring, ring.variables[iq])
    p = variable(ring, ring.variables[ip])
    return (q - p * _I) * _INV_SQRT2


# -- brackets --------------------------------------------------------------

def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """{f, g} = sum_k (df/dq_k dg/dp_k - df/dp_k dg/dq_k), exactly."""
    if f.ring != g.ring:
        raise ValueError("poisson_bracket requires a shared ring")
    ring = f.ring
    out = constant(ring, 0)
    for iq, ip in ring.pairs:
        q = ring.variables[iq]
        p = ring.variables[ip]
        out = out + (f.differentiate(q) * g.differentiate(p)
                     - f.differentiate(p) * g.differentiate(q))
    return out


# -- point dynamics ----------------------------------------------------------

class PhasePoint(NamedTuple):
    q: float
    p: float

    def to_z(self) -> complex:
        return complex(self.q, self.p) * (2.0 ** -0.5)


@dataclass(frozen=True)
class OscillatorParams:
    """Frequency of one oscillator, positive and finite: the rescaled
    variables of the leapfrog are singular at omega = 0, and there the
    half-quantum every ordering check measures vanishes.  The CLI's
    --omega domain holds it there."""

    omega: float

    @property
    def period(self) -> float:
        return 2 * math.pi / self.omega


def hamilton_step(
    point: PhasePoint,
    params: OscillatorParams,
    dt: float,
    friction: float = 0.0,
) -> PhasePoint:
    """One kick-drift-kick leapfrog step of qdot = w p, pdot = -w q - alpha p.

    Friction enters as the exact exponential decay of the momentum around the
    drift, so friction = 0 reproduces the frictionless step bit for bit, and
    the one-step map contracts areas by exactly exp(-alpha dt).

    q and p may be equal-shape arrays, each element getting the same floats
    as when stepped alone: ensemble_evolve steps the two unit vectors this
    way to build the 2x2 map of a whole interval.
    """
    w = params.omega
    q, p = point[0], point[1]
    decay = math.exp(-friction * dt / 2.0)
    p = p - 0.5 * dt * w * q
    p = p * decay
    q = q + dt * w * p
    p = p * decay
    p = p - 0.5 * dt * w * q
    return PhasePoint(q, p)


def hamilton_orbit(
    point: PhasePoint,
    params: OscillatorParams,
    dt: float,
    n_steps: int,
    friction: float = 0.0,
    stride: int = 1,
):
    """Iterate hamilton_step; returns (times, q, p) sampled every `stride` steps.

    The leapfrog is linearly unstable once w dt >= 2: such a step raises
    StabilityError instead of returning a growing orbit.  An orbit of more
    snapshots than MAX_SNAPSHOT_FLOATS raises CapacityError before it steps.
    """
    if n_steps < 1 or stride < 1:
        raise ValueError("n_steps and stride must be >= 1")
    if not params.omega * dt < 2.0:
        raise StabilityError(
            f"w dt = {params.omega * dt:.4g} at or beyond the leapfrog "
            "stability bound 2")
    # the start, every stride-th step, and the last step
    n_snap = 1 + -(-n_steps // stride)
    if n_snap > MAX_SNAPSHOT_FLOATS:
        raise CapacityError(
            f"{n_snap:.3g} orbit snapshots exceed the snapshot buffer cap of "
            f"{MAX_SNAPSHOT_FLOATS}")
    times, qs, ps = np.empty(n_snap), np.empty(n_snap), np.empty(n_snap)
    times[0], qs[0], ps[0] = 0.0, point[0], point[1]
    x = PhasePoint(*point)
    s = 0
    for k in range(1, n_steps + 1):
        x = hamilton_step(x, params, dt, friction)
        if k % stride == 0 or k == n_steps:
            s += 1
            times[s], qs[s], ps[s] = k * dt, x.q, x.p
    return times, qs, ps
