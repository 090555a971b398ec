"""`thermofock damp`: damped motion, leapfrog against the exact flow, and
its envelope."""

import argparse
import math
import sys

from . import tilt_rule, underdamped_rule


def run(args, report):
    import numpy as np

    from .. import bargmann, dynamics, fits
    from ..errors import check_capacity, check_finite, check_steps, step_count
    from ..phasespace import leapfrog_map

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
    q0, p0 = args.q0, args.v0 / w
    # the coherent centers along the orbit shrink from this one
    tilt_rule(abs(complex(q0, p0) * 2.0 ** -0.5) / args.hbar, args.hbar,
              "--q0/--v0/--hbar")
    # 0.01 omega underflows to 0 at a subnormal omega
    alpha = (args.alpha if args.alpha is not None
             else check_finite(0.01 * w, "default friction 0.01 omega",
                               positive=True))
    underdamped_rule(alpha, w)
    dt = args.dt if args.dt is not None else (2 * math.pi / w) / 256.0
    t_max = args.t_max if args.t_max is not None else 5.0 / alpha
    # a period 2 pi/omega or a run 5/alpha that overflowed, or both
    n_steps = step_count(t_max, dt, f"step count t-max/dt = {t_max:g}/{dt:g}")
    check_steps(n_steps, f"the orbit over t-max/dt = {t_max:g}/{dt:g}")
    # the start, every stride-th step and the last step; the largest array
    # is the closed form's 2x2 flow at each snapshot
    stride = 4
    n_full, tail = divmod(n_steps, stride)
    n_snap = 1 + n_full + (tail > 0)
    check_capacity(4 * n_snap,
                   f"the flows of an orbit of {n_snap:.3g} snapshots")
    # and the coherent vectors of the last check, before a step is taken
    check_capacity(2 * (args.nmax + 1),
                   f"a coherent vector at truncation {args.nmax:.3g}")
    times = np.minimum(np.arange(n_snap) * stride, n_steps) * dt

    def orbit(friction):
        """(q, p) at `times`: each snapshot the one before moved by one
        stride's leapfrog map, the last by that of its own steps."""
        full, last = (leapfrog_map(w, dt, n, friction)
                      for n in (stride, tail or stride))
        qs, ps = np.empty(n_snap), np.empty(n_snap)
        x, y = q0, p0
        qs[0], ps[0] = x, y
        for s in range(1, n_snap):
            (m00, m01), (m10, m11) = full if s < n_snap - 1 else last
            x, y = m00 * x + m01 * y, m10 * x + m11 * y
            qs[s], ps[s] = x, y
        return qs, ps

    def closed_form(friction, t):
        """(q, p) at t of the exact damped flow from the start point."""
        flow = dynamics.damped_flow(w, friction, t)
        return (flow[..., 0, 0] * q0 + flow[..., 0, 1] * p0,
                flow[..., 1, 0] * q0 + flow[..., 1, 1] * p0)

    qs, ps = orbit(alpha)
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

    q_closed, p_closed = closed_form(alpha, times)
    scale = max(abs(args.q0), abs(args.v0) / w, 1e-300)
    traj_dev = float(np.max(np.abs(q_closed - qs)))
    report.add("closed-form-vs-leapfrog",
               "the exact damped flow tracks the integrated trajectory",
               traj_dev, 0.0, 0.01 * scale)

    late = float(abs(closed_form(alpha, 20.0 / alpha)[0]))
    report.add("long-time-decay",
               "displacement after twenty relaxation times is below 1e-4 "
               "of the initial scale",
               late, 0.0, 1e-4 * scale)

    # the energies of q and p over a power of two at or above the initial
    # scale: exact, so the drifts read as unscaled ones wherever those
    # neither underflow nor overflow (at --q0 1e-300 they underflowed to 0/0)
    unit = math.ldexp(1.0, math.frexp(scale)[1])
    q_free, p_free = closed_form(0.0, times)
    energies = 0.5 * w * ((q_free / unit) ** 2 + (p_free / unit) ** 2)
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    report.add("control-energy-constant",
               "the undamped closed form conserves energy",
               drift, 0.0, 1e-12)

    q0s, p0s = orbit(0.0)
    e_lf = 0.5 * w * ((q0s / unit) ** 2 + (p0s / unit) ** 2)
    report.add("control-leapfrog-energy",
               "the frictionless integrator keeps energy within its "
               "step-size tolerance",
               float(np.max(np.abs(e_lf - e_lf[0])) / e_lf[0]), 0.0,
               (w * dt) ** 2 / 2.0)

    # the largest rise of any coefficient magnitude between consecutive
    # sample times, holding two vectors at a time; each vector's centre is
    # the simulated snapshot nearest its time, c_t = conj(z_t) / hbar
    increase, prev = -math.inf, None
    for t in np.linspace(0.0, t_max, 30):
        k = int(np.argmin(np.abs(times - t)))
        c_t = (complex(qs[k], ps[k]) * 2.0 ** -0.5).conjugate() / args.hbar
        mags = np.abs(bargmann.coherent_vector(c_t, args.nmax,
                                               args.hbar).coeffs)
        if prev is not None:
            increase = max(increase, float(np.max(mags - prev)))
        prev = mags
    report.add("fock-amplitudes-monotone",
               "every coherent-state coefficient magnitude decays "
               "monotonically under damping",
               increase, 0.0, 0.0)

    return {"damp_trajectory.csv": np.rec.fromarrays(
        [times, q_closed, p_closed, qs, ps],
        names=["t", "q_closed", "p_closed", "q_leapfrog", "p_leapfrog"])}
