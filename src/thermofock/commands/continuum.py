"""`thermofock continuum`: lattice dispersion converges to k^2 + M^2."""

import argparse
import math


def run(args, report):
    import numpy as np

    from .. import chain
    from ..errors import check_finite

    spacings = args.spacings
    if args.k_phys * spacings[0] > math.pi:
        raise argparse.ArgumentTypeError(
            f"--k-phys {args.k_phys:g} lies outside the first Brillouin zone "
            f"k <= pi/a of the coarsest of the --spacings, a = {spacings[0]:g}")
    errors = []
    for a in spacings:
        params = chain.continuum_params_for(a, args.field_mass)
        # an error below the rounding of w^2 (--k-phys 1e-4 at a field
        # mass of 1) reads 0, by which the ratios below would divide
        errors.append(check_finite(
            chain.continuum_error(args.k_phys, params),
            f"dispersion error of the a = {a:g} chain", positive=True))
    params0 = chain.continuum_params_for(spacings[0], args.field_mass)
    report.add("zone-center-exact",
               "the lattice dispersion is exact at zero wavenumber",
               chain.continuum_error(0.0, params0), 0.0,
               1e-15 * max(args.field_mass ** 2, 1.0))
    factors = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    # the factor farthest from 4 speaks for all of them; a NaN one wins
    worst = max(factors, key=lambda f: (math.isnan(f), abs(f - 4.0)))
    report.add("error-quarters-when-spacing-halves",
               "the dispersion error drops fourfold when the spacing halves",
               worst, 4.0, 0.8)
    a_small = spacings[-1]
    massless = chain.continuum_params_for(a_small, 0.0)
    k = args.k_phys
    report.add("massless-linear-dispersion",
               "the massless chain disperses linearly at small wavenumber",
               abs(chain.dispersion(k, massless) - abs(k)), 0.0,
               1.01 * abs(k) ** 3 * a_small ** 2 / 24.0)
    return {"continuum_errors.csv": np.rec.fromarrays(
        [spacings, errors, factors + [math.nan]],
        names=["spacing", "error", "factor_vs_next"])}
