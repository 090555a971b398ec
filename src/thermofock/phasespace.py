"""The Poisson bracket of linear observables, phase-space points of one
oscillator, their leapfrog stepper and the 2x2 map of its steps.

A linear observable a q + b p is its coefficient pair (a, b); the ones
whose brackets are a02's commutator targets live in `exact`, their
coefficients Gaussian integers.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import StabilityError

__all__ = [
    "PhasePoint",
    "poisson_bracket",
    "hamilton_step",
    "leapfrog_map",
]


def poisson_bracket(f, g):
    """{f, g} = df/dq dg/dp - df/dp dg/dq of two linear observables, in the
    arithmetic of their coefficients: exact for the Gaussian integers of
    `exact`'s Q, P, SQRT2_Z and SQRT2_ZBAR."""
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
    leapfrog_map steps the two unit vectors as one array pair, the 2x2 map
    of n steps that `damp` iterates along its orbit and that moves the
    ensemble cloud over an interval.  dt may be an array too, broadcast
    against q and p along their last axis, each element's decay still
    libm's exp of its own step (`math.exp`).
    """
    q, p = point[0], point[1]
    kick, drift = 0.5 * dt * omega, dt * omega
    if np.ndim(dt):
        decay = np.array([math.exp(-friction * h / 2.0) for h in dt.tolist()])
    else:
        decay = math.exp(-friction * dt / 2.0)
    p = p - kick * q
    p = p * decay
    q = q + drift * p
    p = p * decay
    p = p - kick * q
    return PhasePoint(q, p)


def leapfrog_map(omega: float, h: float, n_steps: int,
                 friction: float = 0.0) -> tuple:
    """The 2x2 map of `n_steps` hamilton_step steps of length h, as its rows
    ((m00, m01), (m10, m11)) of floats: the leapfrog is linear, so the steps
    move (q, p) to (m00 q + m01 p, m10 q + m11 p), up to rounding.

    Its columns are the two unit vectors stepped as one array pair, each
    element getting the floats of a float point stepped alone.  h may be a
    1d array of step lengths, all stepped at once: each m is then a list,
    its entry j the float of the map of steps of length h[j] alone.  The
    leapfrog is linearly unstable once w h >= 2: such a step raises
    StabilityError before any step is taken.
    """
    if not np.all(omega * h < 2.0):
        raise StabilityError(
            f"w dt = {np.max(omega * h):.4g} at or beyond the leapfrog "
            "stability bound 2")
    one, zero = np.ones(np.shape(h)), np.zeros(np.shape(h))
    units = PhasePoint(np.array([one, zero]), np.array([zero, one]))
    for _ in range(n_steps):
        units = hamilton_step(units, omega, h, friction)
    return tuple(units.q.tolist()), tuple(units.p.tolist())
