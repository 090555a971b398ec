"""Reproducible experiment runner: every verification is a subcommand.

Each subcommand runs a cluster of checks, prints one line per check, writes
a versioned JSON report plus CSV data tables into the output directory, and
exits 0 only if every check passed (1 = check failure, 2 = usage error,
3 = numerical failure, 4 = internal error).  Stochastic runs require an
explicit --seed and are bit-reproducible from (config, seed); the --threads
flag caps library parallelism without changing any result.

Heavy imports happen inside the runners, after --threads is applied, so the
thread cap reaches the numerics libraries before they start their pools.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

OUTDIR_ENV = "THERMOFOCK_OUTDIR"

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _count(text: str) -> int:
    """Sample counts accept scientific notation: --samples 1e6."""
    value = float(text)
    if value != int(value) or value < 0:
        raise argparse.ArgumentTypeError(f"not a whole count: {text!r}")
    return int(value)


def _float_list(text: str):
    return [float(part) for part in text.split(",") if part.strip()]


def _complex(text: str) -> complex:
    """Coherent-state centers accept complex literals: --c 0.5 or --c 0.3+0.4j."""
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a complex number: {text!r}")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, complex):
        return f"{value.real:.6g}{value.imag:+.6g}j"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def format_check(check) -> str:
    """A check record as printed after its [PASS]/[FAIL] tag."""
    extra = f" se={_fmt(check.stderr)}" if check.stderr is not None else ""
    return (f"{check.name}: measured={_fmt(check.measured)} "
            f"oracle={_fmt(check.oracle)} tol={_fmt(check.tolerance)}{extra}")


def _config_echo(args) -> dict:
    skip = {"command", "outdir", "threads"}
    return {k: v for k, v in vars(args).items() if k not in skip}


# ---------------------------------------------------------------------------
# subcommand runners: each returns (ExperimentReport, [(csv_name, header, rows)])
# ---------------------------------------------------------------------------

def run_gram(args):
    import numpy as np

    from . import bargmann
    from .reports import ExperimentReport

    report = ExperimentReport(command="gram", config=_config_echo(args))
    dim = args.nmax + 1
    g = bargmann.gram_quadrature(args.nmax, args.hbar)
    dev = np.abs(g - np.eye(dim))
    worst = float(np.max(dev))
    report.add("gram-quadrature-identity",
               "quadrature Gram matrix of the orthonormal basis equals the identity",
               worst, 0.0, 1e-10, worst <= 1e-10)
    rows = [(i, j, g[i, j].real, g[i, j].imag, dev[i, j])
            for i in range(dim) for j in range(dim)]
    tables = [("gram_quadrature.csv",
               ["i", "j", "real", "imag", "deviation"], rows)]
    if args.samples:
        if args.seed is None:
            raise ValueError("--samples requires --seed")
        gm, se = bargmann.gram_montecarlo(args.nmax, args.hbar,
                                          args.samples, args.seed)
        devm = np.abs(gm - np.eye(dim))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(se > 0, devm / se,
                             np.where(devm == 0.0, 0.0, np.inf))
        worst_ratio = float(np.max(ratio))
        report.add("gram-montecarlo-3se",
                   "Monte Carlo Gram matrix is the identity within 3 standard "
                   "errors per entry",
                   worst_ratio, 0.0, 3.0, worst_ratio <= 3.0,
                   stderr=float(np.max(se)))
        tables.append(("gram_montecarlo.csv",
                       ["i", "j", "real", "imag", "stderr", "deviation_over_se"],
                       [(i, j, gm[i, j].real, gm[i, j].imag, se[i, j], ratio[i, j])
                        for i in range(dim) for j in range(dim)]))
    return report, tables


def run_coherent(args):
    import numpy as np

    from . import bargmann
    from .reports import ExperimentReport

    report = ExperimentReport(command="coherent", config=_config_echo(args))
    if args.nmax < 1:
        raise ValueError("--nmax must be >= 1: the ladder check compares the "
                         "coefficients below the truncation")
    c = args.c
    hbar = args.hbar
    f = bargmann.coherent_vector(c, args.nmax, hbar)
    norm2 = f.norm() ** 2
    oracle = math.exp(hbar * abs(c) ** 2)
    measured = norm2 + (f.tail_mass or 0.0)
    report.add("coherent-norm-completeness",
               "squared norm plus truncation tail equals exp(hbar |c|^2)",
               measured, oracle, 1e-12 * oracle,
               abs(measured - oracle) <= 1e-12 * oracle)

    other = bargmann.coherent_vector(0.3 - 0.2j, args.nmax, hbar)
    pairing = bargmann.kernel_eval(c, other)
    pair_oracle = complex(np.exp(hbar * np.conj(c) * (0.3 - 0.2j)))
    pair_err = abs(pairing - pair_oracle)
    pair_tol = 1e-10 * abs(pair_oracle)
    report.add("coherent-kernel-pairing",
               "pairing with a coherent vector evaluates the function at "
               "hbar times the conjugate parameter",
               pair_err, 0.0, pair_tol, pair_err <= pair_tol)

    lowered = bargmann.ladder_matrix("annihilate", args.nmax, hbar) @ f.coeffs
    scaled = hbar * c * f.coeffs[:-1]
    eig_err = float(np.max(np.abs(lowered[:-1] - scaled)))
    eig_tol = 1e-12 * float(np.max(np.abs(scaled)))
    report.add("coherent-ladder-eigenvalue",
               "the annihilation operator scales a coherent vector by hbar*c",
               eig_err, 0.0, eig_tol, eig_err <= eig_tol)

    rows = [(n, f.coeffs[n].real, f.coeffs[n].imag, abs(f.coeffs[n]))
            for n in range(f.truncation + 1)]
    return report, [("coherent_coefficients.csv",
                     ["n", "real", "imag", "abs"], rows)]


def run_commutator(args):
    import numpy as np

    from . import bargmann
    from .phasespace import (OscillatorParams, PhaseRing, poisson_bracket,
                             variable, z_element, zbar_element)
    from .reports import ExperimentReport

    report = ExperimentReport(command="commutator", config=_config_echo(args))
    nmax, hbar = args.nmax, args.hbar
    if nmax < 1:
        raise ValueError("--nmax must be >= 1: the checks read the interior "
                         "block below the truncation")
    params = OscillatorParams(args.omega)
    # Dirac's correspondence [A, B] = i hbar {A, B}: the targets are i hbar
    # times the exact classical brackets, with z -> lower and zbar -> raise
    # under quadrature_operators' convention, so {z, zbar} = -i gives hbar
    ring = PhaseRing.canonical(1)

    def dirac_target(f, g):
        bracket = poisson_bracket(f, g).coefficient((0, 0))
        return 1j * hbar * complex(bracket) * np.eye(nmax + 1)

    low = bargmann.ladder_matrix("annihilate", nmax, hbar)
    raise_ = bargmann.ladder_matrix("create", nmax, hbar)
    ladder_comm = bargmann.commutator(low, raise_)
    target = dirac_target(z_element(ring), zbar_element(ring))
    ladder_dev = np.abs(ladder_comm - target)
    worst_ladder = float(np.max(ladder_dev[:nmax, :nmax]))
    report.add("ladder-commutator-interior",
               "[lower, raise] = hbar on the interior block",
               worst_ladder, 0.0, 1e-12, worst_ladder <= 1e-12)

    pos, mom = bargmann.quadrature_operators(hbar, nmax)
    qp_comm = bargmann.commutator(pos, mom)
    qp_dev = np.abs(qp_comm - dirac_target(variable(ring, "q"),
                                           variable(ring, "p")))
    worst_qp = float(np.max(qp_dev[:nmax, :nmax]))
    report.add("position-momentum-commutator-interior",
               "[position, momentum] = i hbar on the interior block",
               worst_qp, 0.0, 1e-12, worst_qp <= 1e-12)

    trace = abs(complex(np.trace(ladder_comm)))
    trace_tol = 1e-12 * nmax * hbar
    report.add("commutator-trace-zero",
               "finite truncation balances: the commutator is traceless",
               trace, 0.0, trace_tol, trace <= trace_tol)

    h_sym = bargmann.hamiltonian_matrix("symmetric", params, hbar, nmax)
    h_norm = bargmann.hamiltonian_matrix("normal", params, hbar, nmax)
    gap = h_sym - h_norm
    gap_dev = float(np.max(np.abs(gap - 0.5 * hbar * args.omega * np.eye(nmax + 1))))
    report.add("ordering-gap-half-quantum",
               "symmetric minus normal ordering is exactly half a quantum "
               "times the identity",
               gap_dev, 0.0, 0.0, gap_dev == 0.0)

    rows = [(n, ladder_dev[n, n], qp_dev[n, n]) for n in range(nmax)]
    return report, [("commutator_residuals.csv",
                     ["n", "ladder_residual", "quadrature_residual"], rows)]


def run_evolve(args):
    import numpy as np

    from . import bargmann, dynamics
    from .phasespace import OscillatorParams
    from .reports import ExperimentReport

    report = ExperimentReport(command="evolve", config=_config_echo(args))
    params = OscillatorParams(args.omega)
    if args.n_times < 1:
        raise ValueError("--n-times must be >= 1: every check is a worst "
                         "case over the time grid")
    rng = np.random.default_rng(args.seed)
    coeffs = rng.standard_normal(args.nmax + 1) + 1j * rng.standard_normal(args.nmax + 1)
    f = bargmann.FockVector(coeffs, args.hbar).normalized()
    t_max = args.t_max if args.t_max is not None else 10.0 / args.omega
    radius = args.radius if args.radius is not None else math.sqrt(args.hbar)
    times = np.linspace(0.0, t_max, args.n_times)
    prof0 = dynamics.profile_from_fock(f, radius, args.grid)

    # per-time deviations; np.max keeps a NaN that max() would drop
    dists, route_devs, phase_devs = [], [], []
    rows = []
    for t in times:
        ft = dynamics.schrodinger_evolve(f, float(t), "normal", params)
        transported = dynamics.transport_solve(prof0, float(t), params, "spectral")
        dist = dynamics.l2_grid_distance(
            transported, dynamics.profile_from_fock(ft, radius, args.grid))
        dists.append(dist)
        exact = dynamics.evolve_exact(f, float(t), params)
        route_devs.append(np.max(np.abs(ft.coeffs - exact.coeffs)))
        sym = dynamics.schrodinger_evolve(f, float(t), "symmetric", params)
        phase = np.exp(-0.5j * args.omega * float(t))
        phase_devs.append(np.max(np.abs(sym.coeffs - phase * ft.coeffs)))
        rows.append((float(t), dist))
    worst_l2 = float(np.max(dists))
    worst_route = float(np.max(route_devs))
    worst_phase = float(np.max(phase_devs))
    report.add("transport-vs-schrodinger",
               "rigid rotation of the angular profile matches the "
               "normal-ordered Schrodinger evolution on the grid",
               worst_l2, 0.0, 1e-8, worst_l2 <= 1e-8)
    report.add("schrodinger-normal-vs-exact",
               "normal-ordered Schrodinger evolution reproduces the exact "
               "per-level phases",
               worst_route, 0.0, 1e-12, worst_route <= 1e-12)
    report.add("symmetric-global-phase",
               "symmetric ordering differs only by the half-quantum global phase",
               worst_phase, 0.0, 1e-12, worst_phase <= 1e-12)
    return report, [("evolve_distance.csv", ["t", "l2_distance"], rows)]


def run_damp(args):
    import numpy as np

    from . import bargmann, dynamics, fits
    from .phasespace import OscillatorParams, PhasePoint, hamilton_orbit
    from .reports import ExperimentReport

    report = ExperimentReport(command="damp", config=_config_echo(args))
    params = OscillatorParams(args.omega)
    w = params.omega
    alpha = args.alpha if args.alpha is not None else 0.01 * w
    if not alpha > 0:
        raise ValueError("damp requires alpha > 0: its checks measure decay")
    damping = dynamics.DampingParams(alpha)
    dt = args.dt if args.dt is not None else params.period / 256.0
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError("damp requires --dt positive and finite")
    t_max = args.t_max if args.t_max is not None else 5.0 / alpha
    n_steps = int(math.ceil(t_max / dt))
    point = PhasePoint(args.q0, args.v0 / w)

    times, qs, ps = hamilton_orbit(point, params, dt, n_steps,
                                   friction=alpha, stride=4)
    z_mag = np.hypot(qs, ps) * (2.0 ** -0.5)
    usable = z_mag > 0
    rate = fits.fit_decay_rate(times[usable], z_mag[usable])
    target = alpha / 2.0
    report.add("envelope-rate-fit",
               "fitted decay rate of the simulated amplitude equals half "
               "the friction coefficient",
               rate, target, 0.01 * target, abs(rate - target) <= 0.01 * target)

    t10 = 10.0 / w
    idx10 = int(np.argmin(np.abs(times - t10)))
    ratio = float(z_mag[idx10] / z_mag[0])
    ratio_oracle = math.exp(-0.5 * alpha * float(times[idx10]))
    report.add("envelope-ratio-ten-cycles",
               "amplitude ratio after ten inverse frequencies follows the "
               "half-rate exponential",
               ratio, ratio_oracle, 0.02 * ratio_oracle,
               abs(ratio - ratio_oracle) <= 0.02 * ratio_oracle)

    closed = dynamics.damped_solution(args.q0, args.v0, params, damping, times)
    scale = max(abs(args.q0), abs(args.v0) / w, 1e-300)
    traj_dev = float(np.max(np.abs(closed.q - qs)))
    report.add("closed-form-vs-leapfrog",
               "closed-form weakly damped motion tracks the integrated "
               "trajectory",
               traj_dev, 0.0, 0.01 * scale, traj_dev <= 0.01 * scale)

    far = dynamics.damped_solution(args.q0, args.v0, params, damping,
                                   20.0 / alpha)
    late = abs(far.q)
    report.add("long-time-decay",
               "displacement after twenty relaxation times is below 1e-4 "
               "of the initial scale",
               late, 0.0, 1e-4 * scale, late <= 1e-4 * scale)

    free = dynamics.DampingParams(0.0)
    sol0 = dynamics.damped_solution(args.q0, args.v0, params, free, times)
    energies = 0.5 * w * (np.asarray(sol0.q) ** 2 + np.asarray(sol0.p) ** 2)
    drift = float(np.max(np.abs(energies - energies[0])) / energies[0])
    report.add("control-energy-constant",
               "the undamped closed form conserves energy",
               drift, 0.0, 1e-12, drift <= 1e-12)

    _, q0s, p0s = hamilton_orbit(point, params, dt, n_steps, stride=4)
    e_lf = 0.5 * w * (q0s ** 2 + p0s ** 2)
    lf_drift = float(np.max(np.abs(e_lf - e_lf[0])) / e_lf[0])
    lf_tol = (w * dt) ** 2 / 2.0
    report.add("control-leapfrog-energy",
               "the frictionless integrator keeps energy within its "
               "step-size tolerance",
               lf_drift, 0.0, lf_tol, lf_drift <= lf_tol)

    c0 = np.conj(point.to_z()) / args.hbar
    sample_times = np.linspace(0.0, t_max, 30)
    mags = []
    for t in sample_times:
        ct = c0 * np.exp((-1j * w - 0.5 * alpha) * t)
        mags.append(np.abs(bargmann.coherent_vector(complex(ct), args.nmax,
                                                    args.hbar).coeffs))
    mags = np.array(mags)
    increase = float(np.max(np.diff(mags, axis=0)))
    report.add("fock-amplitudes-monotone",
               "every coherent-state coefficient magnitude decays "
               "monotonically under damping",
               increase, 0.0, 0.0, increase <= 0.0)

    rows = list(zip(times.tolist(), np.asarray(closed.q).tolist(),
                    np.asarray(closed.p).tolist(), qs.tolist(), ps.tolist()))
    return report, [("damp_trajectory.csv",
                     ["t", "q_closed", "p_closed", "q_leapfrog", "p_leapfrog"],
                     rows)]


def run_ensemble(args):
    import numpy as np

    from . import bargmann, dynamics
    from .phasespace import OscillatorParams
    from .reports import ExperimentReport

    report = ExperimentReport(command="ensemble", config=_config_echo(args))
    c = args.c
    hbar = args.hbar
    w, alpha = args.omega, args.alpha
    params = OscillatorParams(w)
    damping = dynamics.DampingParams(alpha)
    if not alpha < 2.0 * w:
        raise ValueError("ensemble needs alpha < 2 omega: its oracle is the "
                         "underdamped flow")
    f = bargmann.coherent_vector(c, args.nmax, hbar).normalized()
    t_max = args.t_max if args.t_max is not None else params.period
    times = np.linspace(0.0, t_max, args.n_times)
    history = dynamics.ensemble_evolve(f, params, times, args.samples,
                                       args.seed, damping=damping,
                                       proposal_scale=args.proposal_scale)
    # exact linear flow of (q, p) under qdot = w p, pdot = -w q - alpha p:
    # M(t) = e^{-alpha t/2} [cos(W t) I + sin(W t)/W (A + alpha/2 I)]
    # w * w underflows for tiny omega; the factored form does not
    big_w = w * math.sqrt(1.0 - (0.5 * alpha / w) ** 2)
    shifted = np.array([[0.5 * alpha, w], [-w, -0.5 * alpha]])
    center = hbar * np.conj(c)
    x0 = math.sqrt(2.0) * np.array([center.real, center.imag])
    # per-time deviations; np.max keeps a NaN that max() would drop
    mean_devs, abs2_devs = [], []
    rows = []
    for t, rep in zip(times, history.moments):
        flow = math.exp(-0.5 * alpha * t) * (
            math.cos(big_w * t) * np.eye(2)
            + (math.sin(big_w * t) / big_w) * shifted)
        mean = flow @ x0
        oracle = complex(mean[0], mean[1]) / math.sqrt(2.0)
        se_re, se_im = rep.mean_se
        mean_devs += [abs(rep.mean.real - oracle.real) / se_re,
                      abs(rep.mean.imag - oracle.imag) / se_im]
        # the cloud starts Gaussian with covariance hbar I in (q, p), so
        # <|z|^2> = (hbar |M|_F^2 + |M x0|^2) / 2
        abs2_oracle = 0.5 * (hbar * float(np.sum(flow * flow))
                             + float(mean @ mean))
        abs2_devs.append(abs(rep.abs2_mean - abs2_oracle) / rep.abs2_se)
        rows.append((float(t), rep.mean.real, rep.mean.imag, se_re, se_im,
                     oracle.real, oracle.imag, rep.abs2_mean, rep.abs2_se,
                     abs2_oracle))
    worst_mean = float(np.max(mean_devs))
    worst_abs2 = float(np.max(abs2_devs))
    report.add("ensemble-mean-trace",
               "the ensemble mean of z follows hbar conj(c) times the "
               "rotating (damped) phase at every sampled time",
               worst_mean, 0.0, 4.0, worst_mean <= 4.0)
    report.add("ensemble-second-moment",
               "the ensemble mean of |z|^2 follows the contracted Gaussian "
               "moment at every sampled time",
               worst_abs2, 0.0, 4.0, worst_abs2 <= 4.0)
    report.add("sampler-efficiency",
               "rejection sampling stayed above the efficiency floor",
               history.acceptance_rate, 1.0, 1.0 - 1e-3,
               history.acceptance_rate > 1e-3)
    return report, [("ensemble_moments.csv",
                     ["t", "mean_re", "mean_im", "se_re", "se_im",
                      "oracle_re", "oracle_im", "abs2", "abs2_se",
                      "abs2_oracle"], rows)]


def run_partition(args):
    from . import bath
    from .phasespace import PhaseRing, oscillator_hamiltonian
    from .reports import ExperimentReport

    report = ExperimentReport(command="partition", config=_config_echo(args))
    oracle = bath.BathParams(args.beta, args.omega).h
    ring = PhaseRing.canonical(args.pairs)
    h_poly = oscillator_hamiltonian(ring, args.omega)

    analytic = bath.partition_estimate(h_poly, args.beta, args.pairs,
                                       method="analytic")
    dev = abs(analytic.h - oracle)
    report.add("analytic-action-cell",
               "the Gaussian integral gives the action cell h = 2 pi/(beta omega)",
               analytic.h, oracle, 1e-12 * oracle, dev <= 1e-12 * oracle)

    mc = bath.partition_estimate(h_poly, args.beta, args.pairs,
                                 method="montecarlo", samples=args.samples,
                                 seed=args.seed,
                                 proposal_scale=args.proposal_scale)
    report.add("montecarlo-action-cell-1pct",
               "the Monte Carlo action cell lands within 1% of 2 pi/(beta omega)",
               mc.h, oracle, 0.01 * oracle,
               abs(mc.h - oracle) <= 0.01 * oracle, stderr=mc.stderr)
    report.add("montecarlo-action-cell-4se",
               "the Monte Carlo action cell is statistically consistent "
               "with the closed form",
               mc.h, oracle, 4.0 * mc.stderr,
               abs(mc.h - oracle) <= 4.0 * mc.stderr, stderr=mc.stderr)
    rows = [("analytic", analytic.z_value, analytic.h, analytic.stderr),
            ("montecarlo", mc.z_value, mc.h, mc.stderr)]
    return report, [("partition_results.csv",
                     ["method", "z_value", "h", "stderr"], rows)]


def run_variation(args):
    import numpy as np

    from . import bath
    from .phasespace import PhaseRing, oscillator_hamiltonian
    from .fits import fit_loglog_slope
    from .reports import ExperimentReport

    report = ExperimentReport(command="variation", config=_config_echo(args))
    if args.count < 1:
        raise ValueError("--count must be >= 1: the standard generator is "
                         "always among those checked")
    if not 0 < args.omega < math.inf:
        raise ValueError("--omega must be positive and finite: at zero "
                         "frequency the Hamiltonian vanishes and the slope "
                         "has nothing to fit")
    if args.dt_count < 2:
        raise ValueError("--dt-count must be >= 2: a slope needs two steps")
    for flag, dt in (("--dt-min", args.dt_min), ("--dt-max", args.dt_max)):
        if not 0 < dt < math.inf:
            raise ValueError(f"{flag} must be positive and finite: the steps "
                             "are log-spaced")
    if args.dt_min == args.dt_max:
        raise ValueError("--dt-min must differ from --dt-max: a slope needs "
                         "two distinct steps")
    ring = PhaseRing.canonical(args.pairs)
    h_poly = oscillator_hamiltonian(ring, args.omega)
    dim = 2 * args.pairs
    rng = np.random.default_rng(args.seed)
    x = rng.standard_normal(dim)

    generators = [bath.VariationGenerator.standard(args.pairs)]
    generators += [bath.random_antisymmetric(dim, rng)
                   for _ in range(args.count - 1)]
    defects = [bath.generator_defect(x, h_poly, gen) for gen in generators]
    worst = float(np.max(defects))
    report.add("antisymmetric-defect",
               "the gradient is orthogonal to every antisymmetric image of "
               "itself, so Gibbs weights are flow-invariant to first order",
               worst, 0.0, 1e-12, worst <= 1e-12)

    dts = np.logspace(math.log10(args.dt_min), math.log10(args.dt_max),
                      args.dt_count)
    changes = bath.gibbs_first_order_defect(x, h_poly, generators[0], dts)
    slope = fit_loglog_slope(dts, changes)
    report.add("taylor-slope-second-order",
               "the energy change along the generated flow scales "
               "quadratically in the step",
               slope, 2.0, 0.1, abs(slope - 2.0) <= 0.1)
    tables = [("variation_defects.csv", ["index", "defect"],
               list(enumerate(defects))),
              ("variation_taylor.csv", ["dt", "energy_change"],
               list(zip(dts.tolist(), changes.tolist())))]
    return report, tables


def run_tilt(args):
    from . import bath
    from .reports import ExperimentReport

    report = ExperimentReport(command="tilt", config=_config_echo(args))
    bp = bath.BathParams(args.beta, args.omega)
    c = args.c
    sample = bath.tilt_measure(bp, c, args.samples, args.seed)
    se_re, se_im = sample.report.mean_se
    mean = sample.report.mean
    center = sample.expected_mean
    ratio = max(abs(mean.real - center.real) / se_re,
                abs(mean.imag - center.imag) / se_im)
    report.add("tilt-mean-shift",
               "tilting the Gaussian by a coherent weight shifts the mean "
               "to hbar conj(c)",
               ratio, 0.0, 4.0, ratio <= 4.0, stderr=max(se_re, se_im))
    half = bp.hbar / 2.0
    var_dev = max(abs(sample.var_real - half), abs(sample.var_imag - half))
    report.add("tilt-variance-unchanged",
               "the tilt leaves the per-component variance at hbar/2",
               var_dev, 0.0, 4.0 * sample.var_se,
               var_dev <= 4.0 * sample.var_se, stderr=sample.var_se)
    report.add("tilt-components-uncorrelated",
               "the tilt leaves the components uncorrelated",
               abs(sample.cov_real_imag), 0.0, 4.0 * sample.cov_se,
               abs(sample.cov_real_imag) <= 4.0 * sample.cov_se,
               stderr=sample.cov_se)
    rows = [(sample.report.n_samples, mean.real, mean.imag, se_re, se_im,
             center.real, center.imag, sample.var_real, sample.var_imag,
             sample.cov_real_imag)]
    return report, [("tilt_moments.csv",
                     ["n_samples", "mean_re", "mean_im", "se_re", "se_im",
                      "center_re", "center_im", "var_re", "var_im", "cov"],
                     rows)]


def run_sphere(args):
    from . import bath
    from .reports import ExperimentReport

    report = ExperimentReport(command="sphere", config=_config_echo(args))
    bp = bath.BathParams(args.beta, args.omega)
    radius2 = args.radius2
    if radius2 is None:
        radius2 = bp.hbar / 2.0
    params = bath.SphereParams(math.sqrt(radius2), args.beta)
    check = bath.sphere_pushforward_check(params, args.samples, args.seed)
    report.add("sphere-radial-exponential",
               "the pushforward of uniform sphere area has the exponential "
               "radial law (99% KS)",
               check.ks_radial, 0.0, check.threshold_99,
               check.ks_radial < check.threshold_99)
    report.add("sphere-angle-uniform",
               "the pushforward keeps the angle uniform (99% KS)",
               check.ks_angular, 0.0, check.threshold_99,
               check.ks_angular < check.threshold_99)
    h_oracle = bp.h
    report.add("sphere-area-matches-action-cell",
               "the sphere area 4 pi R^2 equals the action cell at the "
               "matching radius",
               check.h_sphere, h_oracle, 1e-12 * h_oracle,
               abs(check.h_sphere - h_oracle) <= 1e-12 * h_oracle)
    rows = [(args.samples, check.ks_radial, check.ks_angular,
             check.threshold_99, check.t_min, check.h_sphere, h_oracle)]
    return report, [("sphere_check.csv",
                     ["n_samples", "ks_radial", "ks_angular", "threshold_99",
                      "t_min", "h_sphere", "h_oracle"], rows)]


def _chain_params(args):
    from .chain import ChainParams

    return ChainParams(n_sites=args.sites, mass=args.mass, gamma=args.gamma,
                       gamma_couple=args.gamma_couple, spacing=args.spacing)


def run_chain_dispersion(args):
    import numpy as np

    from . import chain
    from .reports import ExperimentReport

    report = ExperimentReport(command="chain-dispersion", config=_config_echo(args))
    params = _chain_params(args)
    w0 = chain.dispersion(0.0, params)
    if w0 <= 0:
        raise ValueError("chain-dispersion needs gamma > 0 (bound k = 0 mode)")
    state = chain.sample_thermal_state(params, args.beta, args.seed)
    duration = args.periods * 2.0 * math.pi / w0
    traj = chain.integrate_chain(state, params, duration, args.dt,
                                 stride=args.stride)
    meas = chain.spectral_dispersion(traj, params)
    n_skipped = int(np.sum(meas.skipped))
    report.add("all-modes-resolved",
               "every oscillating mode produced a usable spectral peak",
               n_skipped, 0, 0.0, n_skipped == 0)
    report.add("dispersion-peaks-within-resolution",
               "per-mode spectral peaks match the dispersion relation "
               "within the frequency resolution",
               meas.max_error, 0.0, meas.resolution,
               bool(meas.max_error <= meas.resolution))
    rows = [(float(meas.k[j]), float(meas.omega_expected[j]),
             float(meas.omega_measured[j]),
             float(abs(meas.omega_measured[j] - meas.omega_expected[j])),
             bool(meas.skipped[j]))
            for j in range(params.n_sites)]
    return report, [("chain_dispersion.csv",
                     ["k", "omega_expected", "omega_measured", "error",
                      "skipped"], rows)]


def run_continuum(args):
    from . import chain
    from .reports import ExperimentReport

    report = ExperimentReport(command="continuum", config=_config_echo(args))
    spacings = args.spacings
    if len(spacings) < 2:
        raise ValueError("need at least two spacings")
    if any(b >= a for a, b in zip(spacings, spacings[1:])):
        raise ValueError("spacings must decrease")
    errors = []
    for a in spacings:
        params = chain.continuum_params_for(a, args.field_mass)
        errors.append(chain.continuum_error(args.k_phys, params))
    params0 = chain.continuum_params_for(spacings[0], args.field_mass)
    zero_err = chain.continuum_error(0.0, params0)
    zero_tol = 1e-15 * max(args.field_mass ** 2, 1.0)
    report.add("zone-center-exact",
               "the lattice dispersion is exact at zero wavenumber",
               zero_err, 0.0, zero_tol, zero_err <= zero_tol)
    factors = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
    worst = max(factors, key=lambda f: abs(f - 4.0))
    report.add("error-quarters-when-spacing-halves",
               "the dispersion error drops fourfold when the spacing halves",
               worst, 4.0, 0.8, all(abs(f - 4.0) <= 0.8 for f in factors))
    a_small = spacings[-1]
    massless = chain.continuum_params_for(a_small, 0.0)
    k = args.k_phys
    lin_dev = abs(chain.dispersion(k, massless) - abs(k))
    lin_tol = 1.01 * abs(k) ** 3 * a_small ** 2 / 24.0
    report.add("massless-linear-dispersion",
               "the massless chain disperses linearly at small wavenumber",
               lin_dev, 0.0, lin_tol, lin_dev <= lin_tol)
    rows = [(spacings[i], errors[i],
             factors[i] if i < len(factors) else math.nan)
            for i in range(len(spacings))]
    return report, [("continuum_errors.csv",
                     ["spacing", "error", "factor_vs_next"], rows)]


def run_rescale(args):
    import numpy as np

    from . import chain
    from .reports import ExperimentReport

    report = ExperimentReport(command="rescale", config=_config_echo(args))
    params = _chain_params(args)
    state = chain.sample_thermal_state(params, args.beta, args.seed)
    energy = chain.chain_energy(state, params)
    modes = chain.normal_modes(state, params)
    dev_direct = abs(modes.energy() - energy) / energy
    report.add("mode-sum-diagonalizes-energy",
               "the frequency-weighted amplitude sum reproduces the chain energy",
               dev_direct, 0.0, 1e-10, dev_direct <= 1e-10)
    rescaled = chain.rescale_modes(modes)
    dev_rescaled = abs(rescaled.energy() - energy) / energy
    report.add("rescaled-single-frequency-energy",
               "after rescaling the energy is omega(0) times the plain "
               "amplitude sum",
               dev_rescaled, 0.0, 1e-10, dev_rescaled <= 1e-10)
    back = chain.reconstruct_state(modes, params)
    scale = float(max(np.max(np.abs(state.q)), np.max(np.abs(state.p)), 1e-300))
    roundtrip = float(max(np.max(np.abs(back.q - state.q)),
                          np.max(np.abs(back.p - state.p)))) / scale
    report.add("mode-transform-roundtrip",
               "forward then inverse mode transform returns the state",
               roundtrip, 0.0, 1e-12, roundtrip <= 1e-12)
    lam = modes.rescale_factors
    lam0 = float(lam[0])
    report.add("zero-mode-unrescaled",
               "the k = 0 mode keeps its amplitude (unit rescale factor)",
               lam0, 1.0, 0.0, lam0 == 1.0)
    w0 = float(modes.omega[0])
    stat = float(args.beta * w0 * np.sum(np.abs(rescaled.amplitudes) ** 2))
    n = params.n_sites
    dev_stat = abs(stat - n)
    report.add("uniform-action-equipartition",
               "rescaled thermal amplitudes share one action scale "
               "1/(beta omega(0)) across all modes",
               dev_stat, 0.0, 4.0 * math.sqrt(n), dev_stat <= 4.0 * math.sqrt(n),
               stderr=math.sqrt(n))
    rows = [(float(modes.k[j]), float(modes.omega[j]), float(lam[j]),
             float(abs(modes.amplitudes[j])),
             float(abs(rescaled.amplitudes[j])))
            for j in range(n)]
    return report, [("rescale_modes.csv",
                     ["k", "omega", "lambda", "abs_amplitude",
                      "abs_amplitude_rescaled"], rows)]


def run_mode_commutator(args):
    import numpy as np

    from . import bath, chain
    from .reports import ExperimentReport

    report = ExperimentReport(command="mode-commutator", config=_config_echo(args))
    hbar = bath.BathParams(args.beta, args.omega0).hbar
    residual = chain.mode_commutator_check(args.modes, args.levels, hbar)
    off = residual - np.diag(np.diag(residual))
    worst_off = float(np.max(off)) if args.modes > 1 else 0.0
    report.add("cross-mode-commutators-vanish",
               "ladder operators of distinct modes commute identically",
               worst_off, 0.0, 0.0, worst_off == 0.0)
    worst_diag = float(np.max(np.diag(residual)))
    report.add("same-mode-commutator-exact",
               "each mode's ladder commutator equals the uniform action "
               "scale exactly on interior states",
               worst_diag, 0.0, 0.0, worst_diag == 0.0)
    rows = [(j, l, residual[j, l])
            for j in range(args.modes) for l in range(args.modes)]
    return report, [("mode_commutator_residuals.csv",
                     ["j", "l", "residual"], rows)]


def run_relax(args):
    from . import chain
    from .reports import ExperimentReport

    report = ExperimentReport(command="relax", config=_config_echo(args))
    params = _chain_params(args)
    state = chain.sample_thermal_state(params, args.beta, args.seed)
    t_max = args.t_max
    if t_max is None:
        t_max = 10.0 / args.alpha if args.alpha > 0 else 200.0
    result = chain.chain_relax(state, params, args.alpha, t_max, args.dt,
                               stride=args.stride)
    if args.alpha > 0:
        report.add("mode-envelope-rates",
                   "every excited mode's amplitude envelope decays at half "
                   "the friction rate",
                   result.worst_rate_error, 0.0, 0.05,
                   result.worst_rate_error <= 0.05)
        dev = abs(result.energy_ratio - result.expected_ratio) / result.expected_ratio
        report.add("energy-exponential-decay",
                   "total energy falls like the squared envelope",
                   result.energy_ratio, result.expected_ratio,
                   0.10 * result.expected_ratio, dev <= 0.10)
        report.add("energy-monotone-nonincreasing",
                   "snapshot energies never increase beyond integrator ripple",
                   result.monotone, True, 0.0, bool(result.monotone))
    else:
        tol = (params.omega_max * args.dt) ** 2 / 2.0
        report.add("control-energy-conserved",
                   "without friction the integrator conserves energy to its "
                   "step-size tolerance",
                   result.energy_drift, 0.0, tol, result.energy_drift <= tol)
    energy_rows = list(zip(result.times.tolist(), result.energies.tolist()))
    rate_rows = [(float(params.wavenumbers[j]), float(result.mode_rates[j]),
                  result.target_rate)
                 for j in range(params.n_sites)]
    return report, [("relax_energy.csv", ["t", "energy"], energy_rows),
                    ("relax_rates.csv", ["k", "rate", "target_rate"], rate_rows)]


RUNNERS = {
    "gram": run_gram,
    "coherent": run_coherent,
    "commutator": run_commutator,
    "evolve": run_evolve,
    "damp": run_damp,
    "ensemble": run_ensemble,
    "partition": run_partition,
    "variation": run_variation,
    "tilt": run_tilt,
    "sphere": run_sphere,
    "chain-dispersion": run_chain_dispersion,
    "continuum": run_continuum,
    "rescale": run_rescale,
    "mode-commutator": run_mode_commutator,
    "relax": run_relax,
}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--outdir", default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} or .)")
    common.add_argument("--threads", type=int, default=None,
                        help="cap internal numerics parallelism")

    parser = argparse.ArgumentParser(
        prog="thermofock",
        description="verification experiments for the thermal-oscillator "
                    "quantization toolkit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("gram", parents=[common],
                       help="orthonormality of the holomorphic basis")
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--samples", type=_count, default=0,
                   help="also run the Monte Carlo Gram check")
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("coherent", parents=[common],
                       help="coherent vectors: norm, kernel pairing, ladder")
    p.add_argument("--c", type=_complex, default=0.5 + 0j)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--hbar", type=float, default=1.0)

    p = sub.add_parser("commutator", parents=[common],
                       help="ladder and quadrature commutators, ordering gap")
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)

    p = sub.add_parser("evolve", parents=[common],
                       help="classical transport vs Schrodinger evolution")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=24)
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--t-max", type=float, default=None,
                   help="default 10/omega")
    p.add_argument("--n-times", type=int, default=11)
    p.add_argument("--radius", type=float, default=None,
                   help="default sqrt(hbar)")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("damp", parents=[common],
                       help="weakly damped motion and its envelope")
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=None,
                   help="default 0.01*omega")
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--v0", type=float, default=0.0)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=16)
    p.add_argument("--dt", type=float, default=None,
                   help="default one 256th of the period")
    p.add_argument("--t-max", type=float, default=None,
                   help="default five relaxation times")

    p = sub.add_parser("ensemble", parents=[common],
                       help="particle ensemble pushforward of |f|^2 dmu")
    p.add_argument("--c", type=_complex, default=0.5 + 0j)
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--nmax", type=int, default=32)
    p.add_argument("--samples", type=_count, default=100_000)
    p.add_argument("--n-times", type=int, default=20)
    p.add_argument("--t-max", type=float, default=None,
                   help="default one period")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--proposal-scale", type=float, default=2.0)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("partition", parents=[common],
                       help="action cell h from the partition integral")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--pairs", type=int, default=1)
    p.add_argument("--samples", type=_count, default=1_000_000)
    p.add_argument("--proposal-scale", type=float, default=1.5)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("variation", parents=[common],
                       help="antisymmetric variations leave Gibbs weights "
                            "stationary to first order")
    p.add_argument("--pairs", type=int, default=2)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--dt-min", type=float, default=1e-4)
    p.add_argument("--dt-max", type=float, default=1e-2)
    p.add_argument("--dt-count", type=int, default=9)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("tilt", parents=[common],
                       help="coherent tilt of the equilibrium Gaussian")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--c", type=_complex, default=0.5 + 0j)
    p.add_argument("--samples", type=_count, default=100_000)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("sphere", parents=[common],
                       help="uniform sphere area pushed to the phase plane")
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--omega", type=float, default=1.0)
    p.add_argument("--radius2", type=float, default=None,
                   help="squared radius; default 1/(2 beta omega)")
    p.add_argument("--samples", type=_count, default=100_000)
    p.add_argument("--seed", type=int, required=True)

    def chain_flags(p, sites):
        p.add_argument("--sites", type=int, default=sites)
        p.add_argument("--mass", type=float, default=1.0)
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--gamma-couple", type=float, default=1.0)
        p.add_argument("--spacing", type=float, default=1.0)

    p = sub.add_parser("chain-dispersion", parents=[common],
                       help="measure the dispersion relation spectrally")
    chain_flags(p, 256)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--periods", type=float, default=200.0)
    p.add_argument("--dt", type=float, default=0.05)
    p.add_argument("--stride", type=int, default=12)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("continuum", parents=[common],
                       help="lattice dispersion converges to k^2 + M^2")
    p.add_argument("--field-mass", type=float, default=1.0)
    p.add_argument("--k-phys", type=float, default=math.pi / 4.0)
    p.add_argument("--spacings", type=_float_list, default=[1.0, 0.5, 0.25])

    p = sub.add_parser("rescale", parents=[common],
                       help="frequency rescaling gives all modes one action scale")
    chain_flags(p, 64)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("mode-commutator", parents=[common],
                       help="tensor-product ladder commutators vanish exactly")
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--levels", type=int, default=5)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--omega0", type=float, default=1.0)

    p = sub.add_parser("relax", parents=[common],
                       help="coherent chain motion dies away under friction")
    chain_flags(p, 16)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--t-max", type=float, default=None,
                   help="default ten relaxation times")
    p.add_argument("--dt", type=float, default=0.025)
    p.add_argument("--stride", type=int, default=40)
    p.add_argument("--seed", type=int, required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.threads is not None:
        if args.threads < 1:
            print("usage error: --threads must be >= 1", file=sys.stderr)
            return EXIT_USAGE
        for var in _THREAD_VARS:
            os.environ[var] = str(args.threads)
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    os.makedirs(outdir, exist_ok=True)
    report_path = os.path.join(
        outdir, args.command.replace("-", "_") + "_report.json")

    from .errors import ThermoFockError
    from .reports import ExperimentReport, write_csv

    def diagnose(exc, name, verifies, label, code):
        report = ExperimentReport(command=args.command, config=_config_echo(args))
        report.add(name, verifies, f"{type(exc).__name__}: {exc}",
                   "completion", 0.0, False)
        report.duration_seconds = time.perf_counter() - start
        report.write(report_path)
        print(f"{label}: {exc}", file=sys.stderr)
        return code

    start = time.perf_counter()
    try:
        report, tables = RUNNERS[args.command](args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ThermoFockError, ArithmeticError) as exc:
        return diagnose(exc, "numerical-failure",
                        "the run completes inside its numerical validity region",
                        "numerical failure", EXIT_NUMERICAL)
    except Exception as exc:
        import traceback

        traceback.print_exc()
        return diagnose(exc, "internal-error",
                        "the run completes without an unexpected exception",
                        "internal error", EXIT_INTERNAL)
    report.duration_seconds = time.perf_counter() - start
    report.write(report_path)
    for name, header, rows in tables:
        write_csv(os.path.join(outdir, name), header, rows)
    for check in report.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {format_check(check)}")
    print(("PASS " if report.passed else "FAIL ") + args.command
          + " -> " + report_path)
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
