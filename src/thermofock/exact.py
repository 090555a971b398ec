"""The linear observables whose exact Poisson brackets are the commutator
targets of `thermofock commutator`.

A linear observable a q + b p is its coefficient pair (a, b): Q and P, and
z = (q + i p)/sqrt2 and zbar = (q - i p)/sqrt2 scaled by sqrt2, so that
every coefficient is a Gaussian integer.  Their brackets
(`phasespace.poisson_bracket`) are then computed with no rounding at all:
{SQRT2_Z, SQRT2_ZBAR} = -2j, and halving it, {z, zbar} = -1j, is exact too.
"""

__all__ = ["Q", "P", "SQRT2_Z", "SQRT2_ZBAR"]

# (coefficient of q, coefficient of p)
Q = (1, 0)
P = (0, 1)
SQRT2_Z = (1, 1j)       # q + i p
SQRT2_ZBAR = (1, -1j)   # q - i p
