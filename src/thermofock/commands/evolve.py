"""`thermofock evolve`: classical transport vs Schrodinger evolution."""

import argparse
import math


def run(args, report):
    import numpy as np

    from .. import bargmann, dynamics
    from ..errors import check_capacity, check_finite

    if not args.grid >= 2 * args.nmax + 1:
        # harmonic nmax would land in a negative FFT bin of the grid
        raise argparse.ArgumentTypeError(
            f"--grid {args.grid:.3g} must be at least 2 --nmax + 1 = "
            f"{2 * args.nmax + 1:.3g}: the profile's harmonics alias")
    # the arrays the flags size, before the draw: the complex profile on
    # the grid, which bounds --nmax too, and the requested times
    check_capacity(2 * args.grid, f"a profile on a grid of {args.grid:.3g}")
    check_capacity(args.n_times, f"{args.n_times:.3g} times")
    w = args.omega
    rng = np.random.default_rng(args.seed)
    coeffs = rng.standard_normal(args.nmax + 1) + 1j * rng.standard_normal(args.nmax + 1)
    f = bargmann.FockVector(coeffs, args.hbar).normalized()
    # a subnormal --omega: named here, before numpy meets it
    t_max = (args.t_max if args.t_max is not None
             else check_finite(10.0 / args.omega, "run length 10/omega"))
    radius = args.radius if args.radius is not None else math.sqrt(args.hbar)
    times = np.linspace(0.0, t_max, args.n_times)
    prof0 = dynamics.profile_from_fock(f, radius, args.grid)

    # per-time deviations; np.max keeps a NaN that max() would drop
    dists, route_devs, phase_devs = [], [], []
    for t in times:
        ft = dynamics.schrodinger_evolve(f, float(t), "normal", w)
        transported = dynamics.transport_solve(prof0, float(t), w, "spectral")
        dist = dynamics.l2_grid_distance(
            transported, dynamics.profile_from_fock(ft, radius, args.grid))
        dists.append(dist)
        exact = dynamics.evolve_exact(f, float(t), w)
        route_devs.append(np.max(np.abs(ft.coeffs - exact.coeffs)))
        sym = dynamics.schrodinger_evolve(f, float(t), "symmetric", w)
        phase = np.exp(-0.5j * w * float(t))
        phase_devs.append(np.max(np.abs(sym.coeffs - phase * ft.coeffs)))
    worst_l2 = float(np.max(dists))
    worst_route = float(np.max(route_devs))
    worst_phase = float(np.max(phase_devs))
    report.add("transport-vs-schrodinger",
               "rigid rotation of the angular profile matches the "
               "normal-ordered Schrodinger evolution on the grid",
               worst_l2, 0.0, 1e-8)
    report.add("schrodinger-normal-vs-exact",
               "normal-ordered Schrodinger evolution reproduces the exact "
               "per-level phases",
               worst_route, 0.0, 1e-12)
    report.add("symmetric-global-phase",
               "symmetric ordering differs only by the half-quantum global phase",
               worst_phase, 0.0, 1e-12)
    return {"evolve_distance.csv": np.rec.fromarrays(
        [times, dists], names=["t", "l2_distance"])}
