"""`thermofock tilt`: coherent tilt of the equilibrium Gaussian."""

import math

from . import tilt_rule


def run(args, report):
    import numpy as np

    from .. import bath

    bp = bath.BathParams(args.beta, args.omega)
    c = args.c
    tilt_rule(c, bp.hbar, "--c/--beta/--omega")
    n = args.samples
    z = bath.tilt_measure(bp, c, n, args.seed)
    moments = bath.moment_report(z)
    se_re, se_im = moments.mean_se
    mean = moments.mean
    center = complex(bp.hbar * np.conj(c))
    ratio = max(abs(mean.real - center.real) / se_re,
                abs(mean.imag - center.imag) / se_im)
    report.add("tilt-mean-shift",
               "tilting the Gaussian by a coherent weight shifts the mean "
               "to hbar conj(c)",
               ratio, 0.0, 4.0, stderr=max(se_re, se_im))
    # the sampling spreads of a Gaussian variance and covariance; cov_se's
    # root is taken of each factor before the product, which underflows
    # where the variances are near the least normal float (--beta 1e300)
    var_re, var_im, cov = moments.var_re, moments.var_im, moments.cov
    var_se = max(var_re, var_im) * math.sqrt(2.0 / (n - 1))
    cov_se = (math.hypot(math.sqrt(var_re) * math.sqrt(var_im), cov)
              / math.sqrt(n - 1))
    half = bp.hbar / 2.0
    var_dev = max(abs(var_re - half), abs(var_im - half))
    report.add("tilt-variance-unchanged",
               "the tilt leaves the per-component variance at hbar/2",
               var_dev, 0.0, 4.0 * var_se, stderr=var_se)
    report.add("tilt-components-uncorrelated",
               "the tilt leaves the components uncorrelated",
               abs(cov), 0.0, 4.0 * cov_se, stderr=cov_se)
    return {"tilt_moments.csv": np.rec.fromrecords(
        [(n, mean.real, mean.imag, se_re, se_im,
          center.real, center.imag, var_re, var_im, cov)],
        names=["n_samples", "mean_re", "mean_im", "se_re", "se_im",
               "center_re", "center_im", "var_re", "var_im", "cov"])}
