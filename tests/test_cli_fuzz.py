"""Property test of the chain subcommands' exit-code contract: random small
chains, strides, steps and friction, run in-process through cli.main.

Strides up to 80 on chains of up to 32 sites reach both integration routes,
the stencil (2N > stride) and the stride map (2N <= stride).  Run lengths
are drawn as 8 to 40 strides (at most 3200 steps), so chain-dispersion has
the 8 snapshots its spectrum needs.
"""

import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from thermofock import cli  # noqa: E402

CHECKS = {
    "chain-dispersion": ["all-modes-resolved",
                         "dispersion-peaks-within-resolution"],
    "relax": ["mode-envelope-rates", "energy-exponential-decay",
              "energy-monotone-nonincreasing"],
    "relax-control": ["control-energy-conserved"],
}
FAILURES = {cli.EXIT_NUMERICAL: ["numerical-failure"],
            cli.EXIT_INTERNAL: ["internal-error"]}
DT_BOUND = 2.0 / math.sqrt(5.0)     # 2 / w_max at the default stiffnesses


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(command=st.sampled_from(["relax", "chain-dispersion"]),
       sites=st.sampled_from([2, 4, 8, 16, 32]),
       stride=st.integers(1, 80),
       dt_fraction=st.floats(0.02, 0.99),
       alpha=st.floats(0.0, 0.1),
       snapshots=st.integers(8, 40))
def test_chain_commands_keep_the_exit_code_contract(command, sites, stride,
                                                    dt_fraction, alpha,
                                                    snapshots):
    dt = dt_fraction * DT_BOUND
    span = snapshots * stride * dt
    argv = [command, "--sites", str(sites), "--stride", str(stride),
            "--dt", repr(dt), "--seed", "3"]
    if command == "relax":
        argv += ["--alpha", repr(alpha), "--t-max", repr(span)]
    else:
        # the k = 0 mode has w = 1 at the default stiffnesses
        argv += ["--periods", repr(span / (2.0 * math.pi))]
    with tempfile.TemporaryDirectory() as outdir:
        code = cli.main(argv + ["--outdir", outdir])
        assert code in (0, 1, 2, 3, 4), argv
        if code == cli.EXIT_USAGE:
            return
        path = os.path.join(outdir, command.replace("-", "_") + "_report.json")
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    names = [check["name"] for check in report["checks"]]
    if code in FAILURES:
        assert names == FAILURES[code], argv
    else:
        key = "relax-control" if command == "relax" and alpha == 0 else command
        assert names == CHECKS[key], argv
        assert report["passed"] == (code == cli.EXIT_PASS)
