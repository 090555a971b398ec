"""Shared fixtures."""

import tracemalloc

import pytest

from thermofock import cli


@pytest.fixture
def usage_error(tmp_path, capsys):
    """check(argv, flag): running the CLI in-process on `argv` exits 2 with
    `flag` named in standard error.  A value outside a flag's domain stops at
    the parser, before any runner or library code sees it."""

    def check(argv, flag):
        try:
            code = cli.main([*argv, "--outdir", str(tmp_path)])
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE, (argv, code, err)
        assert flag in err, (argv, err)

    return check


@pytest.fixture
def traced_peak():
    """peak(run, warm_up=None) -> (run(), the peak of memory traced while
    run() ran).  warm_up(), when given, runs first, untraced, so that
    imports and numpy's one-time allocations do not land in the peak."""

    def peak(run, warm_up=None):
        if warm_up is not None:
            warm_up()
        tracemalloc.start()
        try:
            result = run()
            _, traced = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, traced

    return peak


@pytest.fixture
def no_leapfrog_step():
    """forbid(patch, error=AssertionError): on the MonkeyPatch `patch`, make
    every binding through which a run takes a leapfrog step raise `error`:
    `phasespace.leapfrog_map`, which `damp` imports when it runs, the
    `dynamics.leapfrog_map` of the ensemble's interval maps, and
    `chain._leapfrog_stride` of the chain runs."""
    from thermofock import chain, dynamics, phasespace

    def forbid(patch, error=AssertionError):
        def step(*args, **kwargs):
            raise error("a leapfrog step was taken")

        for module, name in ((phasespace, "leapfrog_map"),
                             (dynamics, "leapfrog_map"),
                             (chain, "_leapfrog_stride")):
            patch.setattr(module, name, step)

    return forbid
