"""`thermofock ensemble`: particle ensemble pushforward of |f|^2 dmu."""

import argparse
import math

from . import tilt_rule, underdamped_rule


def run(args, report):
    import numpy as np

    from .. import bargmann, dynamics
    from ..errors import check_finite

    c = args.c
    hbar = args.hbar
    w, alpha = args.omega, args.alpha
    underdamped_rule(alpha, w)
    tilt_rule(c, hbar, "--c/--hbar")
    f = bargmann.coherent_vector(c, args.nmax, hbar).normalized()
    # the cloud is drawn from f cut at --nmax and renormalised; where that
    # state's own mean lies a standard error of the mean at --samples or
    # more from the oracle hbar conj(c), the mean check would measure the
    # truncation, not the pushforward.  Re z and Im z of the coherent cloud
    # have variance hbar/2
    gap = abs(dynamics.cloud_centre(f) - hbar * c.conjugate())
    stderr = check_finite(math.sqrt(0.5 * hbar / args.samples),
                          "standard error sqrt(hbar/(2 samples)) of the mean",
                          positive=True)
    if not gap < stderr:
        raise argparse.ArgumentTypeError(
            f"--nmax {args.nmax} is too small for --c/--hbar: the truncated "
            f"state's mean lies {gap / stderr:.3g} standard errors at "
            f"--samples {args.samples:.3g} from hbar conj(c)")
    period = 2 * math.pi / w
    t_max = (args.t_max if args.t_max is not None
             else check_finite(period, "run length 2 pi/omega"))
    # the fold cap bounds the times too, so it is checked before they exist
    dynamics.check_cloud(args.n_times, args.samples)
    times = np.linspace(0.0, t_max, args.n_times)
    history = dynamics.ensemble_evolve(f, w, times, args.samples, args.seed,
                                       dt=period / 1024.0, friction=alpha)
    # the exact flow M(t) of (q, p) moves the cloud's mean and covariance
    center = hbar * np.conj(c)
    x0 = math.sqrt(2.0) * np.array([center.real, center.imag])
    # per-time deviations; np.max keeps a NaN that max() would drop
    mean_devs, abs2_devs = [], []
    rows = []
    for t, flow, rep in zip(times, dynamics.damped_flow(w, alpha, times),
                            history.moments):
        mean = flow @ x0
        oracle = complex(mean[0], mean[1]) / math.sqrt(2.0)
        se_re, se_im = rep.mean_se
        # moments whose spread underflowed (a subnormal hbar^2, or a cloud
        # friction has contracted) are refused before they divide
        check_finite(min(se_re, se_im, rep.abs2_se),
                     f"at t = {t:g}, the least standard error of the moments",
                     positive=True)
        mean_devs += [abs(rep.mean.real - oracle.real) / se_re,
                      abs(rep.mean.imag - oracle.imag) / se_im]
        # the cloud starts Gaussian with covariance hbar I in (q, p), so
        # <|z|^2> = (hbar |M|_F^2 + |M x0|^2) / 2
        abs2_oracle = 0.5 * (hbar * float(np.sum(flow * flow))
                             + float(mean @ mean))
        abs2_devs.append(abs(rep.abs2_mean - abs2_oracle) / rep.abs2_se)
        rows.append((t, rep.mean.real, rep.mean.imag, se_re, se_im,
                     oracle.real, oracle.imag, rep.abs2_mean, rep.abs2_se,
                     abs2_oracle))
    worst_mean = float(np.max(mean_devs))
    worst_abs2 = float(np.max(abs2_devs))
    report.add("ensemble-mean-trace",
               "the ensemble mean of z follows hbar conj(c) times the "
               "rotating (damped) phase at every sampled time",
               worst_mean, 0.0, 4.0)
    report.add("ensemble-second-moment",
               "the ensemble mean of |z|^2 follows the contracted Gaussian "
               "moment at every sampled time",
               worst_abs2, 0.0, 4.0)
    report.add("sampler-efficiency",
               "rejection sampling stayed above the efficiency floor",
               history.acceptance_rate, 1.0, 1.0 - 1e-3)
    return {"ensemble_moments.csv": np.rec.fromrecords(
        rows, names=["t", "mean_re", "mean_im", "se_re", "se_im",
                     "oracle_re", "oracle_im", "abs2", "abs2_se",
                     "abs2_oracle"])}
