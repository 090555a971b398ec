"""`thermofock variation`: antisymmetric variations leave Gibbs weights
stationary to first order."""

import argparse
import math

from . import pairs_matrix


def run(args, report):
    import numpy as np

    from .. import bath
    from ..errors import check_capacity
    from ..fits import fit_loglog_slope

    if args.dt_min == args.dt_max:
        raise argparse.ArgumentTypeError(
            "--dt-min must differ from --dt-max: a slope needs two distinct "
            "steps")
    # the defects --count sizes and the steps --dt-count sizes
    check_capacity(args.count, f"the defects of {args.count:.3g} generators")
    check_capacity(args.dt_count, f"{args.dt_count:.3g} steps")
    a = pairs_matrix(args)
    dim = a.shape[0]
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(dim)

    def measure(generator):
        return (bath.generator_defect(x, a, generator),
                bath.defect_rounding_bound(x, a, generator))

    # one random generator held at a time: each is drawn, measured, dropped
    symplectic = bath.symplectic_generator(args.pairs)
    measured = [measure(symplectic)]
    measured += [measure(bath.random_antisymmetric(dim, rng))
                 for _ in range(args.count - 1)]
    defects, bounds = zip(*measured)
    worst = float(np.max(defects))
    # the defect is rounding alone, which grows with the dimension and |x|
    report.add("antisymmetric-defect",
               "the gradient is orthogonal to every antisymmetric image of "
               "itself, so Gibbs weights are flow-invariant to first order",
               worst, 0.0, max(1e-12, *bounds))

    dts = np.logspace(math.log10(args.dt_min), math.log10(args.dt_max),
                      args.dt_count)
    changes = bath.gibbs_first_order_defect(x, a, symplectic, dts)
    slope = fit_loglog_slope(dts, changes)
    report.add("taylor-slope-second-order",
               "the energy change along the generated flow scales "
               "quadratically in the step",
               slope, 2.0, 0.1)
    return {"variation_defects.csv": np.rec.fromarrays(
                [np.arange(len(defects)), defects], names=["index", "defect"]),
            "variation_taylor.csv": np.rec.fromarrays(
                [dts, changes], names=["dt", "energy_change"])}
