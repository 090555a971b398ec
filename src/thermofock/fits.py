"""Small fitting helpers shared by the dynamics/chain checks and the CLI."""

from __future__ import annotations

import numpy as np

__all__ = ["fit_loglog_slope", "fit_decay_rate"]


def fit_loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x (scaling-exponent fits)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or x.size != y.size:
        raise ValueError("need matching arrays with at least 2 points")
    if np.any(x <= 0) or np.any(y <= 0):
        # data that underflowed to 0 has no logarithm: a numerical failure
        raise FloatingPointError("log-log fit needs strictly positive data")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def fit_decay_rate(t, amplitude) -> float:
    """Decay rate lambda from amplitude ~ exp(-lambda t) by a log-linear fit."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(amplitude, dtype=float)
    if t.size < 2 or t.size != a.size:
        raise ValueError("need matching arrays with at least 2 points")
    if np.any(a <= 0):
        raise ValueError("decay fit needs strictly positive amplitudes")
    if not (np.all(np.isfinite(a)) and 0.0 < np.sum(t * t) < np.inf):
        # np.polyfit divides the column t by its norm, which here is 0, inf
        # or NaN: times that underflow when squared leave no fit
        raise FloatingPointError("decay fit needs finite amplitudes and a "
                                 "finite, nonzero norm of the times")
    return float(-np.polyfit(t, np.log(a), 1)[0])
