"""Acceptance suite: the twelve numbered claims a01-a12, each defined by the
`thermofock` subcommands that check it.  A row names the claim, the CLI
invocations it runs and its wall-clock bound; the invocations are parsed by
the CLI's own parser and run in-process through its runners, each into a
report built as `main` builds it, so the suite and the command line share
one definition of every check.  Each row prints a
single [PASS]/[FAIL] line with every check's measured value, oracle and
tolerance.  Seeds are pinned; nothing here is free to drift between runs.
"""

import math
import shlex
import time

from thermofock import cli
from thermofock.reports import ExperimentReport


def acceptance(label, *invocations, bound=None, exact=()):
    """The test of one claim: it passes when every check of every invocation
    passed, each check named in `exact` measured its oracle exactly, and the
    row finished inside `bound` seconds."""

    def test(capsys):
        parser = cli.build_parser()
        start = time.perf_counter()
        checks = []
        for line in invocations:
            args = parser.parse_args(shlex.split(line))
            report = ExperimentReport(args.command, cli._config_echo(args))
            cli.RUNNERS[args.command](args, report)
            checks += report.checks
        elapsed = time.perf_counter() - start
        exact_ok = {c.name for c in checks if c.measured == c.oracle} >= set(exact)
        ok = (all(c.passed for c in checks) and exact_ok
              and (bound is None or elapsed < bound))
        detail = "; ".join(cli.format_check(c) for c in checks)
        if exact:
            detail += f"; {', '.join(exact)} exact: {exact_ok}"
        detail += f"; {elapsed:.1f}s" + (f" (bound {bound}s)" if bound else "")
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}", flush=True)
        assert ok, f"{label}: {detail}"

    return test


test_a01_basis_orthonormality = acceptance(
    "a01 basis-orthonormality",
    "gram --nmax 16 --hbar 1.0 --samples 1e6 --seed 7", bound=10)
test_a02_ladder_commutators = acceptance(
    "a02 ladder-commutators",
    *(f"commutator --hbar {hbar} --nmax {nmax}"
      for hbar, nmax in ((1, 16), (0.5, 32), (2, 64), (1, 64))))
test_a03_ordering_gap_and_phase = acceptance(
    "a03 ordering-gap-and-phase",
    "commutator --nmax 32", "evolve --nmax 32 --seed 3")
test_a04_transport_matches_schrodinger = acceptance(
    "a04 transport-matches-schrodinger",
    "evolve --nmax 19 --n-times 6 --seed 3", bound=5)
test_a05_coherent_ensemble_mean = acceptance(
    "a05 coherent-ensemble-mean", "ensemble --seed 7", bound=30)
test_a06_action_cell_estimate = acceptance(
    "a06 action-cell-estimate", "partition --seed 7",
    exact=("analytic-action-cell",))
test_a07_gibbs_variation_split = acceptance(
    "a07 gibbs-variation-split", "variation --seed 123")
test_a08_damped_relaxation = acceptance(
    "a08 damped-relaxation",
    f"damp --dt {2 * math.pi / 512!r} --t-max 400 --nmax 24")
test_a09_chain_dispersion = acceptance(
    "a09 chain-dispersion", "chain-dispersion --seed 42", bound=60)
test_a10_continuum_limit = acceptance("a10 continuum-limit", "continuum")
test_a11_multimode_commutators = acceptance(
    "a11 multimode-commutators", "mode-commutator")
test_a12_sphere_pushforward = acceptance(
    "a12 sphere-pushforward", "sphere --seed 21")
