"""`thermofock gram`: orthonormality of the holomorphic basis."""

import argparse


def run(args, report):
    import numpy as np

    from .. import bargmann

    if args.samples and args.seed is None:
        raise argparse.ArgumentTypeError("--samples requires --seed")
    dim = args.nmax + 1
    g = bargmann.gram_quadrature(args.nmax, args.hbar)
    dev = np.abs(g - np.eye(dim))
    worst = float(np.max(dev))
    report.add("gram-quadrature-identity",
               "quadrature Gram matrix of the orthonormal basis equals the identity",
               worst, 0.0, 1e-10)
    i, j = (index.ravel() for index in np.indices((dim, dim)))
    tables = {"gram_quadrature.csv": np.rec.fromarrays(
        [i, j, g.real.ravel(), g.imag.ravel(), dev.ravel()],
        names=["i", "j", "real", "imag", "deviation"])}
    if args.samples:
        gm, se = bargmann.gram_montecarlo(args.nmax, args.hbar,
                                          args.samples, args.seed)
        devm = np.abs(gm - np.eye(dim))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0, devm / se,
                             np.where(devm == 0.0, 0.0, np.inf))
        worst_ratio = float(np.max(ratio))
        report.add("gram-montecarlo-3se",
                   "Monte Carlo Gram matrix is the identity within 3 standard "
                   "errors per entry",
                   worst_ratio, 0.0, 3.0, stderr=float(np.max(se)))
        tables["gram_montecarlo.csv"] = np.rec.fromarrays(
            [i, j, gm.real.ravel(), gm.imag.ravel(), se.ravel(),
             ratio.ravel()],
            names=["i", "j", "real", "imag", "stderr", "deviation_over_se"])
    return tables
