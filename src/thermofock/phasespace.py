"""Linear phase-space observables, their exact Poisson bracket, and a
leapfrog stepper.

A linear observable a q + b p is its coefficient pair (a, b), exact in
Q(i, sqrt2), so the canonical brackets {q, p} = 1 and {z, zbar} = -i of the
complex coordinate z = (q + i p)/sqrt2 hold as equalities, not up to
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import StabilityError, check_capacity
from .exact import SqrtTwoComplex

__all__ = [
    "Q",
    "P",
    "Z",
    "ZBAR",
    "PhasePoint",
    "OscillatorParams",
    "poisson_bracket",
    "hamilton_step",
    "hamilton_orbit",
]

# (coefficient of q, coefficient of p); sqrt2/2 is SqrtTwoComplex(0, 0, 1/2)
Q = (SqrtTwoComplex(1), SqrtTwoComplex(0))
P = (SqrtTwoComplex(0), SqrtTwoComplex(1))
Z = (SqrtTwoComplex(0, 0, Fraction(1, 2)),           # (q + i p)/sqrt2
     SqrtTwoComplex(0, 0, 0, Fraction(1, 2)))
ZBAR = (SqrtTwoComplex(0, 0, Fraction(1, 2)),        # (q - i p)/sqrt2
        SqrtTwoComplex(0, 0, 0, Fraction(-1, 2)))


def poisson_bracket(f, g) -> SqrtTwoComplex:
    """{f, g} = df/dq dg/dp - df/dp dg/dq of two linear observables, exactly."""
    return f[0] * g[1] - f[1] * g[0]


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
    check_capacity(n_snap, f"an orbit of {n_snap} snapshots")
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
