"""`thermofock coherent`: coherent vectors: norm, kernel pairing, ladder."""

import argparse
import math

from . import tilt_rule


def run(args, report):
    import numpy as np

    from .. import bargmann

    c = args.c
    hbar = args.hbar
    tilt_rule(c, hbar, "--c/--hbar")
    # the pairing is exp(x) summed to x^nmax/nmax!: its Lagrange remainder
    # |x|^(nmax+1) e^|x|/(nmax+1)! bounds the truncation.  A bound as large
    # as |exp(x)| = e^Re(x) would pass any finite pairing, so that is a usage
    # error; the logs compare where exp(x) itself overflows
    x = hbar * c.conjugate() * (0.3 - 0.2j)
    log_remainder = -math.inf if x == 0 else (
        (args.nmax + 1) * math.log(abs(x)) + abs(x) - math.lgamma(args.nmax + 2))
    if log_remainder >= x.real:
        raise argparse.ArgumentTypeError(
            f"--nmax {args.nmax} is too small for --c/--hbar: the pairing's "
            f"truncation bound e^{log_remainder:.6g} is at least "
            f"|exp(x)| = e^{x.real:.6g} at x = hbar conj(c) (0.3-0.2j), so "
            "the kernel pairing check would measure nothing")
    # the dense operator is the run's largest array: an oversize truncation
    # is refused before the series are summed
    low = bargmann.lowering_matrix(args.nmax, hbar)
    f = bargmann.coherent_vector(c, args.nmax, hbar)
    norm2 = f.norm() ** 2
    oracle = math.exp(hbar * abs(c) ** 2)
    # the squared norm the truncation lost
    tail = max(math.exp(hbar * abs(c) * abs(c))
               - float(np.sum(np.abs(f.coeffs) ** 2)), 0.0)
    measured = norm2 + tail
    report.add("coherent-norm-completeness",
               "squared norm plus truncation tail equals exp(hbar |c|^2)",
               measured, oracle, 1e-12 * oracle)

    other = bargmann.coherent_vector(0.3 - 0.2j, args.nmax, hbar)
    pairing = bargmann.kernel_eval(c, other)
    pair_oracle = complex(np.exp(x))
    remainder = math.exp(log_remainder)
    report.add("coherent-kernel-pairing",
               "pairing with a coherent vector evaluates the function at "
               "hbar times the conjugate parameter",
               abs(pairing - pair_oracle), 0.0,
               1e-10 * abs(pair_oracle) + remainder)

    lowered = low @ f.coeffs
    scaled = hbar * c * f.coeffs[:-1]
    report.add("coherent-ladder-eigenvalue",
               "the annihilation operator scales a coherent vector by hbar*c",
               float(np.max(np.abs(lowered[:-1] - scaled))), 0.0,
               1e-12 * float(np.max(np.abs(scaled))))

    re, im = f.coeffs.real, f.coeffs.imag
    # np.hypot rounds as abs() of each complex; np.abs of the array does not
    return {"coherent_coefficients.csv": np.rec.fromarrays(
        [np.arange(f.coeffs.size), re, im, np.hypot(re, im)],
        names=["n", "real", "imag", "abs"])}
