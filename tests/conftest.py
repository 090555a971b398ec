"""Shared fixtures."""

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
