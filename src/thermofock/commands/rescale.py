"""`thermofock rescale`: frequency rescaling gives all modes one action
scale."""

import math

from . import chain_params


def run(args, report):
    import numpy as np

    from .. import chain

    params = chain_params(args)
    q, p = chain.sample_thermal_state(params, args.beta, args.seed)
    energy = float(chain.chain_energy(q, p, params))
    amps, omega = chain.mode_amplitudes(q, p, params)
    dev_direct = abs(float(np.sum(omega * np.abs(amps) ** 2)) - energy) / energy
    report.add("mode-sum-diagonalizes-energy",
               "the frequency-weighted amplitude sum reproduces the chain energy",
               dev_direct, 0.0, 1e-10)
    # a~_j = sqrt(w_j / w0) a_j: every mode then shares the k = 0 frequency,
    # the energy is w0 sum |a~|^2, and one hbar = 1/(beta w0) serves all
    w0 = float(omega[0])
    lam = omega / w0
    rescaled = np.sqrt(lam) * amps
    rescaled_sum = float(np.sum(np.abs(rescaled) ** 2))
    dev_rescaled = abs(w0 * rescaled_sum - energy) / energy
    report.add("rescaled-single-frequency-energy",
               "after rescaling the energy is omega(0) times the plain "
               "amplitude sum",
               dev_rescaled, 0.0, 1e-10)
    back_q, back_p = chain.reconstruct_state(amps, params)
    scale = float(max(np.max(np.abs(q)), np.max(np.abs(p)), 1e-300))
    roundtrip = float(max(np.max(np.abs(back_q - q)),
                          np.max(np.abs(back_p - p)))) / scale
    report.add("mode-transform-roundtrip",
               "forward then inverse mode transform returns the state",
               roundtrip, 0.0, 1e-12)
    report.add("zero-mode-unrescaled",
               "the k = 0 mode keeps its amplitude (unit rescale factor)",
               float(lam[0]), 1.0, 0.0)
    n = params.n_sites
    dev_stat = abs(args.beta * w0 * rescaled_sum - n)
    report.add("uniform-action-equipartition",
               "rescaled thermal amplitudes share one action scale "
               "1/(beta omega(0)) across all modes",
               dev_stat, 0.0, 4.0 * math.sqrt(n), stderr=math.sqrt(n))
    # np.hypot rounds as abs() of each complex; np.abs of the array does not
    return {"rescale_modes.csv": np.rec.fromarrays(
        [params.wavenumbers, omega, lam, np.hypot(amps.real, amps.imag),
         np.hypot(rescaled.real, rescaled.imag)],
        names=["k", "omega", "lambda", "abs_amplitude",
               "abs_amplitude_rescaled"])}
