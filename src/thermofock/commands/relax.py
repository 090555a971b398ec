"""`thermofock relax`: coherent chain motion dies away under friction."""

import math

from . import chain_params


def run(args, report):
    import numpy as np

    from .. import chain, fits

    params = chain_params(args)
    alpha = args.alpha
    t_max = args.t_max
    if t_max is None:
        t_max = 10.0 / alpha if alpha > 0 else 200.0
    # the run's refusals, before the draw
    chain.snapshot_count(params, t_max, args.dt, args.stride)
    q, p = chain.sample_thermal_state(params, args.beta, args.seed)
    traj = chain.integrate_chain(q, p, params, t_max, args.dt,
                                 friction=alpha, stride=args.stride)
    times, energies = traj.times, traj.energies
    e0 = energies[0]
    rates = np.full(params.n_sites, np.nan)
    target = 0.0
    if alpha > 0:
        target = alpha / 2.0
        # every mode amplitude shrinks under the envelope e^{-alpha t / 2};
        # the amplitudes overwrite the snapshots, and |a| is taken a mode
        # at a time
        amps, _ = chain.mode_amplitudes(traj.q, traj.p, params,
                                        out=traj.snapshots)
        floor = 1e-8 * max(float(np.max(np.abs(amps[0]))), 1e-300)
        for j in range(params.n_sites):
            mags = np.abs(amps[:, j])
            if mags[0] > floor and np.all(mags > 0):
                rates[j] = fits.fit_decay_rate(times, mags)
        fitted = rates[~np.isnan(rates)]
        report.add("mode-envelope-rates",
                   "every excited mode's amplitude envelope decays at half "
                   "the friction rate",
                   float(np.max(np.abs(fitted - target)) / target)
                   if fitted.size and target else math.nan, 0.0, 0.05)
        expected = math.exp(-alpha * float(times[-1] - times[0]))
        report.add("energy-exponential-decay",
                   "total energy falls like the squared envelope",
                   float(energies[-1] / e0) if e0 > 0 else math.nan,
                   expected, 0.10 * expected)
        # the slack covers the leapfrog's shadow-energy ripple, (w_max h)^2 / 4
        slack = (params.omega_max * (times[1] - times[0]) / args.stride) ** 2 / 4.0
        increases = np.diff(energies) > energies[:-1] * slack + 1e-300
        report.add("energy-monotone-nonincreasing",
                   "snapshot energies never increase beyond integrator ripple",
                   not bool(np.any(increases)), True, 0.0)
    else:
        report.add("control-energy-conserved",
                   "without friction the integrator conserves energy to its "
                   "step-size tolerance",
                   float(np.max(np.abs(energies - e0)) / e0) if e0 > 0 else 0.0,
                   0.0, (params.omega_max * args.dt) ** 2 / 2.0)
    return {"relax_energy.csv": np.rec.fromarrays(
                [times, energies], names=["t", "energy"]),
            "relax_rates.csv": np.rec.fromarrays(
                [params.wavenumbers, rates, np.full_like(rates, target)],
                names=["k", "rate", "target_rate"])}
