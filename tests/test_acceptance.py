"""Acceptance suite: the twelve numbered claims a01-a12, one CLAIMS row
each: its label, the CLI invocations it runs, its wall-clock bound and the
checks that must meet their oracle exactly.  The invocations run in-process
through the CLI's own parser and `cli.evaluate`, as `main` runs them, so
the suite and the command line share one definition of every check and of
every exit code.  Each row prints a single [PASS]/[FAIL] line with every
check's measured value, oracle and tolerance.  Seeds are pinned; nothing
here is free to drift between runs.
"""

import math
import re
import shlex
import time
from pathlib import Path

import pytest

from thermofock import cli

CLAIMS = (
    ("a01 basis-orthonormality",
     ("gram --nmax 16 --hbar 1.0 --samples 1e6 --seed 7",), 10, ()),
    ("a02 ladder-commutators",
     ("commutator --hbar 1 --nmax 16", "commutator --hbar 0.5 --nmax 32",
      "commutator --hbar 2 --nmax 64", "commutator --hbar 1 --nmax 64"),
     None, ()),
    ("a03 ordering-gap-and-phase",
     ("commutator --nmax 32", "evolve --nmax 32 --seed 3"), None, ()),
    ("a04 transport-matches-schrodinger",
     ("evolve --nmax 19 --n-times 6 --seed 3",), 5, ()),
    ("a05 coherent-ensemble-mean", ("ensemble --seed 7",), 30, ()),
    ("a06 action-cell-estimate", ("partition --seed 7",), None,
     ("analytic-action-cell",)),
    ("a07 gibbs-variation-split", ("variation --seed 123",), None, ()),
    ("a08 damped-relaxation",
     (f"damp --dt {2 * math.pi / 512!r} --t-max 400 --nmax 24",), None, ()),
    ("a09 chain-dispersion", ("chain-dispersion --seed 42",), 60, ()),
    ("a10 continuum-limit", ("continuum",), None, ()),
    ("a11 multimode-commutators", ("mode-commutator",), None, ()),
    ("a12 sphere-pushforward", ("sphere --seed 21",), None, ()),
)


def acceptance(label, invocations, bound, exact):
    """The test of one claim: it passes when every invocation exited 0,
    each check named in `exact` measured its oracle exactly, and the row
    finished inside `bound` seconds."""

    def test(capsys):
        parser = cli.build_parser()
        start = time.perf_counter()
        outcomes = [cli.evaluate(parser.parse_args(shlex.split(line)))
                    for line in invocations]
        elapsed = time.perf_counter() - start
        checks = [c for outcome in outcomes for c in outcome.report.checks]
        exact_ok = {c.name for c in checks if c.measured == c.oracle} >= set(exact)
        ok = (all(o.code == cli.EXIT_PASS for o in outcomes) and exact_ok
              and (bound is None or elapsed < bound))
        detail = "; ".join([cli.format_check(c) for c in checks] + [
            o.error for o in outcomes if o.code == cli.EXIT_USAGE])
        if exact:
            detail += f"; {', '.join(exact)} exact: {exact_ok}"
        detail += f"; {elapsed:.1f}s" + (f" (bound {bound}s)" if bound else "")
        line = f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return test


for _label, *_row in CLAIMS:
    globals()["test_" + re.sub(r"[ -]", "_", _label)] = acceptance(_label, *_row)


def test_readme_table_lists_the_claims():
    # each row of the README's acceptance table: its label, and the
    # backticked invocations of its invocation column
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = [line.split(" | ") for line in readme.read_text("utf-8").split("\n")
            if re.match(r"\| a\d\d ", line)]
    assert [(row[0][2:], tuple(re.findall(r"`([^`]*)`", row[2])))
            for row in rows] == [claim[:2] for claim in CLAIMS]


def test_a_raising_row_fails_on_its_diagnostic_record(monkeypatch, capsys):
    # a runner that raises is the exit-3 run a user would see: the row fails
    # on its numerical-failure record instead of erroring out of pytest
    def overflow(args, report):
        raise FloatingPointError("overflow")

    monkeypatch.setitem(cli.RUNNERS, "continuum", overflow)
    label = "a10 continuum-limit, runner patched to raise"
    with pytest.raises(AssertionError, match=re.escape(
            f"[FAIL] {label}: numerical-failure: "
            "measured=FloatingPointError: overflow oracle=completion tol=0;")):
        acceptance(label, *CLAIMS[9][1:])(capsys)
