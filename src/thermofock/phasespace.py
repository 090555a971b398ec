"""The Poisson bracket of linear observables and the 2x2 map of one
oscillator's leapfrog steps.

A linear observable a q + b p is its coefficient pair (a, b); the ones
whose brackets are a02's commutator targets live in `exact`, their
coefficients Gaussian integers.
"""

from __future__ import annotations

import math

from .errors import StabilityError

__all__ = [
    "poisson_bracket",
    "leapfrog_map",
]


def poisson_bracket(f, g):
    """{f, g} = df/dq dg/dp - df/dp dg/dq of two linear observables, in the
    arithmetic of their coefficients: exact for the Gaussian integers of
    `exact`'s Q, P, SQRT2_Z and SQRT2_ZBAR."""
    return f[0] * g[1] - f[1] * g[0]


def leapfrog_map(omega: float, h: float, n_steps: int,
                 friction: float = 0.0) -> tuple:
    """The 2x2 map of `n_steps` kick-drift-kick leapfrog steps of length h
    of qdot = w p, pdot = -w q - alpha p, w = `omega` and alpha = `friction`,
    as its rows ((m00, m01), (m10, m11)) of floats: the leapfrog is linear,
    so the steps move (q, p) to (m00 q + m01 p, m10 q + m11 p), up to
    rounding.  Its columns are the unit vectors (1, 0) and (0, 1), each
    stepped as a pair of plain floats.

    Friction enters as the exact exponential decay of the momentum around
    the drift, so friction = 0 gives the frictionless step bit for bit, and
    the one-step map contracts areas by exactly exp(-alpha h).  omega is
    positive and finite, as the CLI's --omega domain holds it.  The leapfrog
    is linearly unstable once w h >= 2: such a step raises StabilityError
    before any step is taken.
    """
    if not omega * h < 2.0:
        raise StabilityError(
            f"w dt = {omega * h:.4g} at or beyond the leapfrog stability "
            "bound 2")
    kick, drift = 0.5 * h * omega, h * omega
    decay = math.exp(-friction * h / 2.0)
    q1, p1, q2, p2 = 1.0, 0.0, 0.0, 1.0
    for _ in range(n_steps):
        p1 = (p1 - kick * q1) * decay
        p2 = (p2 - kick * q2) * decay
        q1 = q1 + drift * p1
        q2 = q2 + drift * p2
        p1 = p1 * decay - kick * q1
        p2 = p2 * decay - kick * q2
    return (q1, q2), (p1, p2)
