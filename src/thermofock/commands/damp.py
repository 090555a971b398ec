"""`thermofock damp`: weakly damped motion and its envelope."""

import argparse
import math
import sys

from . import tilt_rule, underdamped_rule


def run(args, report):
    import numpy as np

    from .. import bargmann, dynamics, fits
    from ..phasespace import PhasePoint, hamilton_orbit

    w = args.omega
    if args.q0 == 0 and args.v0 == 0:
        raise argparse.ArgumentTypeError(
            "--q0 and --v0 are both 0: the checks measure the decay of a "
            "moving oscillator")
    amplitude = max(abs(args.q0), abs(args.v0) / w)
    if not amplitude >= sys.float_info.min:
        # a subnormal amplitude (or |v0|/omega underflowed to 0): the
        # closed-form orbit rounds to a few subnormal steps, so its energies
        # read 0/0 and its envelope cannot decay smoothly
        raise FloatingPointError(
            f"--q0/--v0: the initial amplitude max(|q0|, |v0|/omega) = "
            f"{amplitude:g} is below the normal float range")
    point = PhasePoint(args.q0, args.v0 / w)
    # the coherent centers along the orbit shrink from this one
    tilt_rule(abs(point.to_z()) / args.hbar, args.hbar, "--q0/--v0/--hbar")
    alpha = args.alpha if args.alpha is not None else 0.01 * w
    underdamped_rule(alpha, w)
    dt = args.dt if args.dt is not None else (2 * math.pi / w) / 256.0
    t_max = args.t_max if args.t_max is not None else 5.0 / alpha
    steps = t_max / dt
    if not math.isfinite(steps):
        # a period 2 pi/omega or a run 5/alpha that overflowed, or both
        raise FloatingPointError(
            f"t-max / dt = {t_max:g} / {dt:g} is no finite step count")
    n_steps = int(math.ceil(steps))

    times, qs, ps = hamilton_orbit(point, w, dt, n_steps,
                                   friction=alpha, stride=4)
    z_mag = np.hypot(qs, ps) * (2.0 ** -0.5)
    usable = z_mag > 0
    rate = fits.fit_decay_rate(times[usable], z_mag[usable])
    target = alpha / 2.0
    report.add("envelope-rate-fit",
               "fitted decay rate of the simulated amplitude equals half "
               "the friction coefficient",
               rate, target, 0.01 * target)

    t10 = 10.0 / w
    idx10 = int(np.argmin(np.abs(times - t10)))
    ratio = float(z_mag[idx10] / z_mag[0])
    ratio_oracle = math.exp(-0.5 * alpha * float(times[idx10]))
    report.add("envelope-ratio-ten-cycles",
               "amplitude ratio after ten inverse frequencies follows the "
               "half-rate exponential",
               ratio, ratio_oracle, 0.02 * ratio_oracle)

    closed = dynamics.damped_solution(args.q0, args.v0, w, alpha, times)
    scale = max(abs(args.q0), abs(args.v0) / w, 1e-300)
    traj_dev = float(np.max(np.abs(closed.q - qs)))
    report.add("closed-form-vs-leapfrog",
               "closed-form weakly damped motion tracks the integrated "
               "trajectory",
               traj_dev, 0.0, 0.01 * scale)

    far = dynamics.damped_solution(args.q0, args.v0, w, alpha, 20.0 / alpha)
    late = abs(far.q)
    report.add("long-time-decay",
               "displacement after twenty relaxation times is below 1e-4 "
               "of the initial scale",
               late, 0.0, 1e-4 * scale)

    # the energies of q and p over a power of two at or above the initial
    # scale: exact, so the drifts read as unscaled ones wherever those
    # neither underflow nor overflow (at --q0 1e-300 they underflowed to 0/0)
    unit = math.ldexp(1.0, math.frexp(scale)[1])
    sol0 = dynamics.damped_solution(args.q0, args.v0, w, 0.0, times)
    energies = 0.5 * w * ((np.asarray(sol0.q) / unit) ** 2
                          + (np.asarray(sol0.p) / unit) ** 2)
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    report.add("control-energy-constant",
               "the undamped closed form conserves energy",
               drift, 0.0, 1e-12)

    _, q0s, p0s = hamilton_orbit(point, w, dt, n_steps, stride=4)
    e_lf = 0.5 * w * ((q0s / unit) ** 2 + (p0s / unit) ** 2)
    report.add("control-leapfrog-energy",
               "the frictionless integrator keeps energy within its "
               "step-size tolerance",
               float(np.max(np.abs(e_lf - e_lf[0])) / e_lf[0]), 0.0,
               (w * dt) ** 2 / 2.0)

    # the largest rise of any coefficient magnitude between consecutive
    # sample times, holding two vectors at a time
    c0 = np.conj(point.to_z()) / args.hbar
    increase, prev = -math.inf, None
    for t in np.linspace(0.0, t_max, 30):
        ct = c0 * np.exp((-1j * w - 0.5 * alpha) * t)
        mags = np.abs(bargmann.coherent_vector(complex(ct), args.nmax,
                                               args.hbar).coeffs)
        if prev is not None:
            increase = max(increase, float(np.max(mags - prev)))
        prev = mags
    report.add("fock-amplitudes-monotone",
               "every coherent-state coefficient magnitude decays "
               "monotonically under damping",
               increase, 0.0, 0.0)

    rows = list(zip(times.tolist(), np.asarray(closed.q).tolist(),
                    np.asarray(closed.p).tolist(), qs.tolist(), ps.tolist()))
    return [("damp_trajectory.csv",
             ["t", "q_closed", "p_closed", "q_leapfrog", "p_leapfrog"],
             rows)]
