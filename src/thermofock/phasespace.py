"""Phase-space polynomial algebra, canonical brackets, and a leapfrog stepper.

Phase functions are explicit polynomials with exact coefficients in
Q(i, sqrt2) rather than black-box callables, so the canonical identities
(antisymmetry, Jacobi, {zbar, z / q, p} = i, the homomorphism property of the
normal-coordinate substitution) hold as equalities, not up to tolerance.

A ring fixes the variable names, the canonical pairing used by the Poisson
bracket, and a total-degree cap.  Two ring kinds exist: "canonical" rings in
conjugate pairs (q_k, p_k), and "normal" rings in the complex pairs
(z_k, zbar_k) with z = (q + i p)/sqrt2.  The bracket in a normal ring carries
the factor i that the non-canonical change of variables produces, so Poisson
brackets agree between the two presentations of the same function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import CapacityError
from .exact import SqrtTwoComplex

__all__ = [
    "PhaseRing",
    "PhasePolynomial",
    "PhasePoint",
    "OscillatorParams",
    "variable",
    "constant",
    "monomial",
    "z_element",
    "zbar_element",
    "oscillator_hamiltonian",
    "poisson_bracket",
    "jacobian_bracket",
    "liouville_apply",
    "to_normal_coordinates",
    "from_normal_coordinates",
    "hamilton_step",
    "hamilton_orbit",
    "oscillator_energy",
]

_ONE = SqrtTwoComplex.ONE
_I = SqrtTwoComplex.I
_INV_SQRT2 = SqrtTwoComplex.INV_SQRT2

DEFAULT_DEGREE_CAP = 16


@dataclass(frozen=True)
class PhaseRing:
    """Variable names plus the canonical pairing entering the bracket."""

    variables: tuple
    pairs: tuple            # ((ia, ib), ...): bracket reads d/d[ia] then d/d[ib]
    pair_factors: tuple     # per-pair bracket weight: 1 for (q,p), i for (zbar,z)
    degree_cap: int = DEFAULT_DEGREE_CAP
    kind: str = "canonical"

    @classmethod
    def canonical(cls, n_pairs: int = 1, degree_cap: int = DEFAULT_DEGREE_CAP) -> "PhaseRing":
        if n_pairs < 1:
            raise ValueError("need at least one canonical pair")
        if n_pairs == 1:
            names = ("q", "p")
        else:
            names = tuple(
                name for k in range(1, n_pairs + 1) for name in (f"q{k}", f"p{k}")
            )
        pairs = tuple((2 * k, 2 * k + 1) for k in range(n_pairs))
        return cls(names, pairs, (_ONE,) * n_pairs, degree_cap, "canonical")

    @classmethod
    def normal(cls, n_pairs: int = 1, degree_cap: int = DEFAULT_DEGREE_CAP) -> "PhaseRing":
        if n_pairs < 1:
            raise ValueError("need at least one pair")
        if n_pairs == 1:
            names = ("z", "zbar")
        else:
            names = tuple(
                name for k in range(1, n_pairs + 1) for name in (f"z{k}", f"zbar{k}")
            )
        # {f,g}_(q,p) = i * (df/dzbar dg/dz - df/dz dg/dzbar)
        pairs = tuple((2 * k + 1, 2 * k) for k in range(n_pairs))
        return cls(names, pairs, (_I,) * n_pairs, degree_cap, "normal")

    @property
    def n_pairs(self) -> int:
        return len(self.pairs)

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
    def terms(self):
        """Terms as (exponent tuple, SqrtTwoComplex) pairs, sorted."""
        return sorted(self._terms.items())

    def coefficient(self, exponents) -> SqrtTwoComplex:
        return self._terms.get(tuple(int(e) for e in exponents), SqrtTwoComplex.ZERO)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self._terms), default=0)

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
        for expo, coeff in self.terms():
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

    def conjugated(self) -> "PhasePolynomial":
        """Coefficient-wise complex conjugate (variables stay untouched).

        This is complex conjugation of the *function* only on rings whose
        variables take real values, i.e. canonical rings.
        """
        return PhasePolynomial(self.ring, {e: c.conjugate() for e, c in self._terms.items()})

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

    # -- evaluation ------------------------------------------------------
    def _value_list(self, values) -> list:
        if isinstance(values, Mapping):
            return [values[v] for v in self.ring.variables]
        seq = list(values)
        if len(seq) != len(self.ring.variables):
            raise ValueError("value sequence does not match ring variables")
        return seq

    def evaluate(self, values) -> complex:
        vals = self._value_list(values)
        total = 0j
        for expo, coeff in self._terms.items():
            term = complex(coeff)
            for v, e in zip(vals, expo):
                if e:
                    term *= v ** e
            total += term
        return total

    def evaluate_array(self, values) -> np.ndarray:
        """Vectorized evaluation; `values` maps each variable to an ndarray."""
        vals = [np.asarray(v) for v in self._value_list(values)]
        shape = np.broadcast_shapes(*(v.shape for v in vals))
        total = np.zeros(shape, dtype=complex)
        for expo, coeff in self._terms.items():
            term = np.full(shape, complex(coeff))
            for v, e in zip(vals, expo):
                if e:
                    term = term * v ** e
            total += term
        return total

    def substitute(self, target_ring: PhaseRing, mapping: Mapping[str, "PhasePolynomial"]):
        """Substitute every variable by a polynomial on `target_ring`."""
        images = []
        for name in self.ring.variables:
            img = mapping[name]
            if img.ring != target_ring:
                raise ValueError(f"image of {name!r} lives on the wrong ring")
            images.append(img)
        out = constant(target_ring, 0)
        for expo, coeff in self._terms.items():
            term = constant(target_ring, coeff)
            for img, e in zip(images, expo):
                for _ in range(e):
                    term = term * img
            out = out + term
        return out


# -- constructors --------------------------------------------------------

def constant(ring: PhaseRing, value) -> PhasePolynomial:
    zero = (0,) * len(ring.variables)
    return PhasePolynomial(ring, {zero: value})


def variable(ring: PhaseRing, name: str) -> PhasePolynomial:
    idx = ring.index(name)
    expo = tuple(1 if i == idx else 0 for i in range(len(ring.variables)))
    return PhasePolynomial(ring, {expo: 1})


def monomial(ring: PhaseRing, exponents, coeff=1) -> PhasePolynomial:
    return PhasePolynomial(ring, {tuple(exponents): coeff})


def z_element(ring: PhaseRing, pair: int = 0) -> PhasePolynomial:
    """z = (q + i p)/sqrt2 as a degree-1 element of a canonical ring."""
    if ring.kind != "canonical":
        raise ValueError("z_element expects a canonical ring")
    iq, ip = ring.pairs[pair]
    q = variable(ring, ring.variables[iq])
    p = variable(ring, ring.variables[ip])
    return (q + p * _I) * _INV_SQRT2


def zbar_element(ring: PhaseRing, pair: int = 0) -> PhasePolynomial:
    """zbar = (q - i p)/sqrt2 as a degree-1 element of a canonical ring."""
    if ring.kind != "canonical":
        raise ValueError("zbar_element expects a canonical ring")
    iq, ip = ring.pairs[pair]
    q = variable(ring, ring.variables[iq])
    p = variable(ring, ring.variables[ip])
    return (q - p * _I) * _INV_SQRT2


def oscillator_hamiltonian(ring: PhaseRing, omega: float) -> PhasePolynomial:
    """H = sum_k omega/2 (q_k^2 + p_k^2), or omega * zbar z on a normal ring."""
    out = constant(ring, 0)
    if ring.kind == "canonical":
        for iq, ip in ring.pairs:
            q = variable(ring, ring.variables[iq])
            p = variable(ring, ring.variables[ip])
            out = out + (q * q + p * p) * (SqrtTwoComplex.coerce(omega) / 2)
    elif ring.kind == "normal":
        for ib, ia in ring.pairs:  # (zbar index, z index)
            z = variable(ring, ring.variables[ia])
            zb = variable(ring, ring.variables[ib])
            out = out + (zb * z) * omega
    else:
        raise ValueError(f"unknown ring kind {ring.kind!r}")
    return out


# -- brackets --------------------------------------------------------------

def poisson_bracket(f: PhasePolynomial, g: PhasePolynomial) -> PhasePolynomial:
    """{f, g} over the ring's canonical pairs.

    On canonical rings this is sum_k (df/dq_k dg/dp_k - df/dp_k dg/dq_k);
    on normal rings the pair factor i makes the result agree with the
    canonical bracket of the same functions.
    """
    if f.ring != g.ring:
        raise ValueError("poisson_bracket requires a shared ring")
    ring = f.ring
    out = constant(ring, 0)
    for (ia, ib), factor in zip(ring.pairs, ring.pair_factors):
        a = ring.variables[ia]
        b = ring.variables[ib]
        term = f.differentiate(a) * g.differentiate(b) - f.differentiate(b) * g.differentiate(a)
        out = out + term * factor
    return out


def jacobian_bracket(f: PhasePolynomial, g: PhasePolynomial, pair) -> PhasePolynomial:
    """d(f, g)/d(a, b) = df/da dg/db - df/db dg/da for named variables a, b."""
    if f.ring != g.ring:
        raise ValueError("jacobian_bracket requires a shared ring")
    a, b = pair
    if a == b:
        raise ValueError("jacobian_bracket needs two distinct variables")
    f.ring.index(a), f.ring.index(b)  # existence check
    return f.differentiate(a) * g.differentiate(b) - f.differentiate(b) * g.differentiate(a)


def liouville_apply(hamiltonian: PhasePolynomial, f: PhasePolynomial) -> PhasePolynomial:
    """The classical generator acting on f: returns {f, H}."""
    return poisson_bracket(f, hamiltonian)


# -- normal coordinates -----------------------------------------------------

def _partner_normal(ring: PhaseRing) -> PhaseRing:
    return PhaseRing.normal(ring.n_pairs, ring.degree_cap)


def _partner_canonical(ring: PhaseRing) -> PhaseRing:
    return PhaseRing.canonical(ring.n_pairs, ring.degree_cap)


def to_normal_coordinates(f: PhasePolynomial) -> PhasePolynomial:
    """Re-express a canonical-ring polynomial in (z, zbar) variables."""
    if f.ring.kind != "canonical":
        raise ValueError("to_normal_coordinates expects a canonical-ring polynomial")
    target = _partner_normal(f.ring)
    mapping = {}
    for k, (iq, ip) in enumerate(f.ring.pairs):
        iz, izb = target.pairs[k][1], target.pairs[k][0]
        z = variable(target, target.variables[iz])
        zb = variable(target, target.variables[izb])
        # q = (z + zbar)/sqrt2,  p = -i (z - zbar)/sqrt2
        mapping[f.ring.variables[iq]] = (z + zb) * _INV_SQRT2
        mapping[f.ring.variables[ip]] = (z - zb) * (-_I * _INV_SQRT2)
    return f.substitute(target, mapping)


def from_normal_coordinates(f: PhasePolynomial) -> PhasePolynomial:
    """Inverse of :func:`to_normal_coordinates`; exact round trip."""
    if f.ring.kind != "normal":
        raise ValueError("from_normal_coordinates expects a normal-ring polynomial")
    target = _partner_canonical(f.ring)
    mapping = {}
    for k, (izb, iz) in enumerate(f.ring.pairs):
        iq, ip = target.pairs[k]
        q = variable(target, target.variables[iq])
        p = variable(target, target.variables[ip])
        mapping[f.ring.variables[iz]] = (q + p * _I) * _INV_SQRT2
        mapping[f.ring.variables[izb]] = (q - p * _I) * _INV_SQRT2
    return f.substitute(target, mapping)


# -- point dynamics ----------------------------------------------------------

class PhasePoint(NamedTuple):
    q: float
    p: float

    def to_z(self) -> complex:
        return complex(self.q, self.p) * (2.0 ** -0.5)

    @classmethod
    def from_z(cls, z: complex) -> "PhasePoint":
        s = 2.0 ** 0.5
        return cls(z.real * s, z.imag * s)


@dataclass(frozen=True)
class OscillatorParams:
    """Frequency of one oscillator, optionally with its raw mass/stiffness.

    omega = 0 is allowed and means a free particle (the frequency rescaling
    is singular there); anything that genuinely needs omega > 0 checks for
    itself.
    """

    omega: float
    mass: float = None
    stiffness: float = None

    def __post_init__(self):
        if not math.isfinite(self.omega) or self.omega < 0:
            raise ValueError("omega must be finite and >= 0")
        if (self.mass is None) != (self.stiffness is None):
            raise ValueError("give both mass and stiffness or neither")
        if self.mass is not None:
            if self.mass <= 0 or self.stiffness < 0:
                raise ValueError("mass must be > 0 and stiffness >= 0")
            if not math.isclose(
                self.omega ** 2, self.stiffness / self.mass, rel_tol=1e-12, abs_tol=1e-300
            ):
                raise ValueError("omega^2 != stiffness/mass")

    @classmethod
    def from_mass_stiffness(cls, mass: float, stiffness: float) -> "OscillatorParams":
        return cls(math.sqrt(stiffness / mass), mass, stiffness)

    @property
    def period(self) -> float:
        return 2 * math.pi / self.omega if self.omega > 0 else math.inf


def hamilton_step(
    point: PhasePoint,
    params: OscillatorParams,
    dt: float,
    friction: float = 0.0,
) -> PhasePoint:
    """One kick-drift-kick leapfrog step of qdot = w p, pdot = -w q - alpha p.

    Friction enters as the exact exponential decay of the momentum around the
    drift, so friction = 0 reproduces the frictionless step bit for bit, and
    the one-step map contracts areas by exactly exp(-alpha dt).  For omega = 0
    the rescaling is singular and the step integrates the plain free particle
    qdot = p/m, pdot = -alpha p (mass defaults to 1).

    q and p may be equal-shape arrays, each element getting the same floats
    as when stepped alone: ensemble_evolve steps the two unit vectors this
    way to build the 2x2 map of a whole interval.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("dt must be positive and finite")
    if friction < 0:
        raise ValueError("friction must be >= 0")
    q, p = point[0], point[1]
    decay = math.exp(-friction * dt / 2.0)
    w = params.omega
    if w > 0:
        p = p - 0.5 * dt * w * q
        p = p * decay
        q = q + dt * w * p
        p = p * decay
        p = p - 0.5 * dt * w * q
    else:
        m = params.mass if params.mass is not None else 1.0
        p = p * decay
        q = q + dt * p / m
        p = p * decay
    return PhasePoint(q, p)


def hamilton_orbit(
    point: PhasePoint,
    params: OscillatorParams,
    dt: float,
    n_steps: int,
    friction: float = 0.0,
    stride: int = 1,
):
    """Iterate hamilton_step; returns (times, q, p) sampled every `stride` steps."""
    if n_steps < 1 or stride < 1:
        raise ValueError("n_steps and stride must be >= 1")
    times = [0.0]
    qs = [float(point[0])]
    ps = [float(point[1])]
    x = PhasePoint(*point)
    for k in range(1, n_steps + 1):
        x = hamilton_step(x, params, dt, friction)
        if k % stride == 0 or k == n_steps:
            times.append(k * dt)
            qs.append(x.q)
            ps.append(x.p)
    return np.array(times), np.array(qs), np.array(ps)


def oscillator_energy(point: PhasePoint, params: OscillatorParams) -> float:
    """H = w (q^2 + p^2)/2 in rescaled variables; p^2/2m for the free case."""
    if params.omega > 0:
        return 0.5 * params.omega * (point[0] ** 2 + point[1] ** 2)
    m = params.mass if params.mass is not None else 1.0
    return 0.5 * point[1] ** 2 / m
