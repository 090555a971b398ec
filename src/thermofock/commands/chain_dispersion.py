"""`thermofock chain-dispersion`: measure the dispersion relation
spectrally."""

import argparse
import math

from . import chain_params


def run(args, report):
    import numpy as np

    from .. import chain

    params = chain_params(args)
    w0 = chain.dispersion(0.0, params)
    duration = args.periods * 2.0 * math.pi / w0
    # refused before the draw; an unstable step is refused first, exit 3
    n_snap = chain.snapshot_count(params, duration, args.dt, args.stride)
    if n_snap < 8:
        raise argparse.ArgumentTypeError(
            f"--periods, --dt and --stride give {n_snap} snapshots: "
            "a spectrum needs at least 8")
    q, p = chain.sample_thermal_state(params, args.beta, args.seed)
    # the spectrum reads the displacements alone
    traj = chain.integrate_chain(q, p, params, duration, args.dt,
                                 stride=args.stride, momenta=False)
    measured, resolution = chain.spectral_dispersion(traj, params)
    k = params.wavenumbers
    expected = chain.dispersion(k, params)
    skipped = np.isnan(measured)
    errors = np.abs(measured - expected)
    resolved = errors[~skipped]
    report.add("all-modes-resolved",
               "every oscillating mode produced a usable spectral peak",
               int(np.sum(skipped)), 0, 0.0)
    report.add("dispersion-peaks-within-resolution",
               "per-mode spectral peaks match the dispersion relation "
               "within the frequency resolution",
               float(np.max(resolved)) if resolved.size else math.nan,
               0.0, resolution)
    return {"chain_dispersion.csv": np.rec.fromarrays(
        [k, expected, measured, errors, skipped],
        names=["k", "omega_expected", "omega_measured", "error", "skipped"])}
