"""The Poisson bracket of linear observables, phase-space points of one
oscillator and their leapfrog stepper.

A linear observable a q + b p is its coefficient pair (a, b).  The exact
ones, whose coefficients lie in Q(i, sqrt2), live in `exact`, so that the
runs that only step points do not load its Fraction arithmetic.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import StabilityError, check_capacity

__all__ = [
    "PhasePoint",
    "poisson_bracket",
    "hamilton_step",
    "hamilton_orbit",
]


def poisson_bracket(f, g):
    """{f, g} = df/dq dg/dp - df/dp dg/dq of two linear observables, in the
    arithmetic of their coefficients: exact for `exact`'s Q, P, Z, ZBAR."""
    return f[0] * g[1] - f[1] * g[0]


# -- point dynamics ----------------------------------------------------------

class PhasePoint(NamedTuple):
    q: float
    p: float

    def to_z(self) -> complex:
        return complex(self.q, self.p) * (2.0 ** -0.5)


def hamilton_step(
    point: PhasePoint,
    omega: float,
    dt: float,
    friction: float = 0.0,
) -> PhasePoint:
    """One kick-drift-kick leapfrog step of qdot = w p, pdot = -w q - alpha p,
    with w = `omega` and alpha = `friction`.

    Friction enters as the exact exponential decay of the momentum around the
    drift, so friction = 0 reproduces the frictionless step bit for bit, and
    the one-step map contracts areas by exactly exp(-alpha dt).  omega is
    positive and finite, as the CLI's --omega domain holds it: the rescaled
    variables are singular at omega = 0.

    q and p may be floats or equal-shape arrays, each element getting the
    floats it gets stepped alone, since every operation is elementwise:
    hamilton_orbit steps the float point `damp` fits, and dynamics' interval
    maps step the two unit vectors as one array pair, the 2x2 map of an
    ensemble interval.
    """
    q, p = point[0], point[1]
    decay = math.exp(-friction * dt / 2.0)
    p = p - 0.5 * dt * omega * q
    p = p * decay
    q = q + dt * omega * p
    p = p * decay
    p = p - 0.5 * dt * omega * q
    return PhasePoint(q, p)


def hamilton_orbit(
    point: PhasePoint,
    omega: float,
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
    if not omega * dt < 2.0:
        raise StabilityError(
            f"w dt = {omega * dt:.4g} at or beyond the leapfrog "
            "stability bound 2")
    # the start, every stride-th step, and the last step
    n_snap = 1 + -(-n_steps // stride)
    check_capacity(n_snap, f"an orbit of {n_snap} snapshots")
    times, qs, ps = np.empty(n_snap), np.empty(n_snap), np.empty(n_snap)
    times[0], qs[0], ps[0] = 0.0, point[0], point[1]
    x = PhasePoint(*point)
    s = 0
    for k in range(1, n_steps + 1):
        x = hamilton_step(x, omega, dt, friction)
        if k % stride == 0 or k == n_steps:
            s += 1
            times[s], qs[s], ps[s] = k * dt, x.q, x.p
    return times, qs, ps
