"""`thermofock partition`: action cell h from the partition integral."""

from . import pairs_matrix


def run(args, report):
    import numpy as np

    from .. import bath
    from ..errors import check_finite

    # beta omega overflowed (or underflowed): the Gibbs weight is no
    # Gaussian a float can hold
    oracle = check_finite(bath.BathParams(args.beta, args.omega).h,
                          "action cell 2 pi/(beta omega)", positive=True)
    a = pairs_matrix(args)

    an_z, an_h, an_se = bath.partition_estimate(a, args.beta,
                                                method="analytic")
    report.add("analytic-action-cell",
               "the Gaussian integral gives the action cell h = 2 pi/(beta omega)",
               an_h, oracle, 1e-12 * oracle)

    mc_z, mc_h, mc_se = bath.partition_estimate(
        a, args.beta, method="montecarlo",
        samples=args.samples, seed=args.seed)
    report.add("montecarlo-action-cell-1pct",
               "the Monte Carlo action cell lands within 1% of 2 pi/(beta omega)",
               mc_h, oracle, 0.01 * oracle, stderr=mc_se)
    report.add("montecarlo-action-cell-4se",
               "the Monte Carlo action cell is statistically consistent "
               "with the closed form",
               mc_h, oracle, 4.0 * mc_se, stderr=mc_se)
    return {"partition_results.csv": np.rec.fromrecords(
        [("analytic", an_z, an_h, an_se), ("montecarlo", mc_z, mc_h, mc_se)],
        names=["method", "z_value", "h", "stderr"])}
