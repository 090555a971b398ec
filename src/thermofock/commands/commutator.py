"""`thermofock commutator`: ladder and quadrature commutators, ordering gap."""

import sys


def run(args, report):
    import numpy as np

    from .. import bargmann
    from ..exact import SQRT2_Z, SQRT2_ZBAR, P, Q
    from ..phasespace import poisson_bracket

    nmax, hbar = args.nmax, args.hbar
    # Dirac's correspondence [A, B] = i hbar {A, B}: the targets are i hbar
    # times the exact classical brackets, with z -> lower and zbar -> raise
    # under quadrature_operators' convention, so {z, zbar} = -i gives hbar;
    # halving {sqrt2 z, sqrt2 zbar} = -2j is exact

    def dirac_target(bracket):
        return 1j * hbar * complex(bracket) * np.eye(nmax + 1)

    # interior residuals round like entries of size nmax hbar: gamma_2 per
    # product entry, two products (Higham, Accuracy and Stability, ch. 3)
    interior_tol = max(1e-12, 4.0 * sys.float_info.epsilon * nmax * hbar)
    low = bargmann.lowering_matrix(nmax, hbar)
    ladder_comm = bargmann.commutator(low, low.T)
    target = dirac_target(poisson_bracket(SQRT2_Z, SQRT2_ZBAR) / 2)
    ladder_dev = np.abs(ladder_comm - target)
    worst_ladder = float(np.max(ladder_dev[:nmax, :nmax]))
    report.add("ladder-commutator-interior",
               "[lower, raise] = hbar on the interior block",
               worst_ladder, 0.0, interior_tol)

    pos, mom = bargmann.quadrature_operators(hbar, nmax)
    qp_comm = bargmann.commutator(pos, mom)
    qp_dev = np.abs(qp_comm - dirac_target(poisson_bracket(Q, P)))
    worst_qp = float(np.max(qp_dev[:nmax, :nmax]))
    report.add("position-momentum-commutator-interior",
               "[position, momentum] = i hbar on the interior block",
               worst_qp, 0.0, interior_tol)

    report.add("commutator-trace-zero",
               "finite truncation balances: the commutator is traceless",
               abs(complex(np.trace(ladder_comm))), 0.0, 1e-12 * nmax * hbar)

    levels_sym = bargmann.hamiltonian_levels("symmetric", args.omega, hbar,
                                             nmax)
    levels_norm = bargmann.hamiltonian_levels("normal", args.omega, hbar, nmax)
    gap = levels_sym - levels_norm - 0.5 * hbar * args.omega
    gap_dev = float(np.max(np.abs(gap)))
    report.add("ordering-gap-half-quantum",
               "symmetric minus normal ordering is exactly half a quantum "
               "times the identity",
               gap_dev, 0.0, 0.0)

    return {"commutator_residuals.csv": np.rec.fromarrays(
        [np.arange(nmax), ladder_dev.diagonal()[:nmax],
         qp_dev.diagonal()[:nmax]],
        names=["n", "ladder_residual", "quadrature_residual"])}
