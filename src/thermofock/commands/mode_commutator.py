"""`thermofock mode-commutator`: tensor-product ladder commutators vanish
exactly."""


def run(args, report):
    import numpy as np

    from .. import bath, chain

    hbar = bath.BathParams(args.beta, args.omega0).hbar
    residual = chain.mode_commutator_check(args.modes, args.levels, hbar)
    off = residual - np.diag(np.diag(residual))
    worst_off = float(np.max(off)) if args.modes > 1 else 0.0
    report.add("cross-mode-commutators-vanish",
               "ladder operators of distinct modes commute identically",
               worst_off, 0.0, 0.0)
    worst_diag = float(np.max(np.diag(residual)))
    report.add("same-mode-commutator-exact",
               "each mode's ladder commutator equals the uniform action "
               "scale exactly on interior states",
               worst_diag, 0.0, 0.0)
    j, l = (index.ravel() for index in np.indices(residual.shape))
    return {"mode_commutator_residuals.csv": np.rec.fromarrays(
        [j, l, residual.ravel()], names=["j", "l", "residual"])}
