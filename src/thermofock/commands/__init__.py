"""The subcommand runners, one module per command.

`commands/<command>.py`, `-` written `_`, defines `run(args, report)`: it
adds its checks to the report `cli.evaluate` built and returns its tables,
{csv_name: rows}, each a numpy record array whose field names are the CSV
header.  `cli.RUNNERS` imports a command's module on its first call, so a
run compiles and executes only its own runner.

A command module never imports `thermofock.cli`: under
`python -m thermofock.cli` that module runs as `__main__`, and importing it
by name would compile and execute it a second time.  A runner raises
argparse.ArgumentTypeError for a cross-flag usage error, which the CLI
reports under exit 2.

The helpers below serve several commands.
"""

import argparse
import math
import sys


def tilt_rule(c: complex, hbar: float, flags: str) -> None:
    """The one bound on a coherent tilt exp(c z): its squared norm
    exp(hbar |c|^2) must be a float.  A cross-flag rule, so it raises the
    usage error type itself; `flags` names the flags it reads."""
    # |c| times |c|, not abs(c) ** 2: the float power raises OverflowError
    # past |c| ~ 1.3e154, where the product runs to inf and meets the bound
    log_norm2 = hbar * abs(c) * abs(c)
    if not log_norm2 <= math.log(sys.float_info.max):
        raise argparse.ArgumentTypeError(
            f"{flags}: hbar |c|^2 = {log_norm2:.6g} is too large: the squared "
            "norm exp(hbar |c|^2) overflows a float")


def underdamped_rule(alpha: float, omega: float) -> None:
    """--alpha below 2 --omega, as the underdamped oracles of `damp` and
    `ensemble` need: a cross-flag rule, raising the usage error type."""
    if not alpha < 2.0 * omega:
        raise argparse.ArgumentTypeError(
            "--alpha must be below 2 --omega: the oracle is the underdamped "
            "flow")


def pairs_matrix(args):
    """omega times the identity on the 2 --pairs phase-space coordinates:
    the matrix of H = (omega/2) |x|^2, refused past the array cap before
    it is allocated."""
    import numpy as np

    from ..errors import check_capacity

    dim = 2 * args.pairs
    check_capacity(dim * dim, f"the {dim:.3g} x {dim:.3g} matrix of "
                              f"--pairs {args.pairs:.3g}")
    return args.omega * np.eye(dim)


def chain_params(args):
    from ..chain import ChainParams

    return ChainParams(n_sites=args.sites, mass=args.mass, gamma=args.gamma,
                       gamma_couple=args.gamma_couple, spacing=args.spacing)
