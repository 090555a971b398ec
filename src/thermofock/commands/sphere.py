"""`thermofock sphere`: uniform sphere area pushed to the phase plane."""

import math
import sys


def run(args, report):
    import numpy as np

    from .. import bath

    bp = bath.BathParams(args.beta, args.omega)
    beta = args.beta
    radius2 = args.radius2 if args.radius2 is not None else bp.hbar / 2.0
    radius = math.sqrt(radius2)
    # the map's scale 2 beta R^2 multiplies each uniform draw before its
    # log: a subnormal scale rounds the small products to 0, whose log
    # diverges, and an infinite one leaves no admissible cap
    scale = 2.0 * beta * radius ** 2
    if not sys.float_info.min <= scale <= sys.float_info.max:
        flags = ("--radius2/--beta" if args.radius2 is not None
                 else "--beta/--omega")
        raise FloatingPointError(
            f"{flags}: 2 beta R^2 = {scale:g} is outside the normal float "
            "range")
    t, angles, t_min = bath.sphere_pushforward_check(
        radius, beta, args.samples, args.seed)
    # the model CDFs 1 - exp(-beta (t - t_min)) and phi/2pi, each written
    # over its draws, which ks_statistic then sorts in place; t is dropped
    # before the angles are drawn, so one array of draws is held at a time
    t -= t_min
    t *= -beta
    np.expm1(t, out=t)
    np.negative(t, out=t)
    ks_radial = bath.ks_statistic(t)
    del t
    phi = angles()
    phi /= 2.0 * math.pi
    ks_angular = bath.ks_statistic(phi)
    # the asymptotic 99% Kolmogorov-Smirnov critical value
    threshold = 1.63 / math.sqrt(args.samples)
    report.add("sphere-radial-exponential",
               "the pushforward of uniform sphere area has the exponential "
               "radial law (99% KS)",
               ks_radial, 0.0, threshold)
    report.add("sphere-angle-uniform",
               "the pushforward keeps the angle uniform (99% KS)",
               ks_angular, 0.0, threshold)
    # the area matches the action cell at R^2 = hbar/2 whatever --radius2,
    # which only the KS checks vary
    area = 4.0 * math.pi * math.sqrt(bp.hbar / 2.0) ** 2
    h_oracle = bp.h
    report.add("sphere-area-matches-action-cell",
               "the sphere area 4 pi R^2 equals the action cell at the "
               "matching radius",
               area, h_oracle, 1e-12 * h_oracle)
    return {"sphere_check.csv": np.rec.fromrecords(
        [(args.samples, ks_radial, ks_angular, threshold, t_min, area,
          h_oracle)],
        names=["n_samples", "ks_radial", "ks_angular", "threshold_99",
               "t_min", "h_sphere", "h_oracle"])}
