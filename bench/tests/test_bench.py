"""Self-checks of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent=-1, raised=False):
    return [name, start, end, parent, raised]


def test_self_time_subtracts_direct_children_on_a_nested_tree():
    spans = [
        span("cli.main", 0.0, 10.0),            # 0
        span("chain.relax", 1.0, 7.0, 0),       # 1
        span("chain.integrate", 2.0, 5.0, 1),   # 2
        span("fits.fit", 5.5, 6.5, 1),          # 3
        span("reports.write", 8.0, 9.5, 0),     # 4
        span("import.thermofock", 9.6, 9.9, 0),  # 5
    ]
    times = tracer.self_times(spans)
    assert times["cli"] == pytest.approx(10.0 - 6.0 - 1.5 - 0.3)
    # the same layer nested in itself counts each span's own part once
    assert times["chain"] == pytest.approx((6.0 - 3.0 - 1.0) + 3.0)
    assert times["fits"] == pytest.approx(1.0)
    assert times["reports"] == pytest.approx(1.5)
    assert sum(times.values()) == pytest.approx(10.0)


def test_pass_layers_counts_outermost_imports_and_raised_calls():
    trace = {"spans": [
        span("import.numpy", 0.0, 0.2),
        span("import.thermofock", 0.2, 0.3),
        span("cli.main", 0.3, 2.0),
        span("import.thermofock", 0.4, 1.0, 2),
        span("import.thermofock", 0.5, 0.9, 3),   # nested: not counted again
        span("chain.integrate_chain", 1.0, 1.5, 2, True),
    ], "counts": {"chain.site_steps": 1000, "import.modules": 7,
                  "chain.snapshot_bytes": run.MIB}}
    result = run.InvocationResult("x", None, True, True, "ok", trace)
    m = run.pass_layers([result, result])
    assert m["import.numpy_s"] == pytest.approx(0.4)
    assert m["import.thermofock_s"] == pytest.approx(2 * 0.7)
    assert m["import.modules"] == 14
    assert m["chain.calls"] == 2 and m["chain.raised"] == 2
    assert m["cli.self_s"] == pytest.approx(2 * (1.7 - 0.6 - 0.5))
    assert m["chain.site_steps_per_s"] == pytest.approx(2000 / 1.0)
    assert m["chain.snapshot_mb"] == pytest.approx(1.0)
    assert m["dynamics.accept_ratio"] == 0.0
    assert set(m) == set(run.PER_LAYER)


def write_report(path, command, checks):
    path.write_text(json.dumps({
        "command": command,
        "passed": all(passed for _, passed in checks),
        "checks": [{"name": n, "passed": p} for n, p in checks],
    }))


INV = run.Invocation(("variation",), 1)


def test_gate_accepts_a_complete_passing_report(tmp_path):
    report = tmp_path / "variation_report.json"
    write_report(report, "variation", [(n, True) for n in INV.checks])
    assert run.judge(0, report, INV)[:2] == (True, True)


def test_gate_flags_a_failing_check(tmp_path):
    report = tmp_path / "variation_report.json"
    write_report(report, "variation",
                 [("antisymmetric-defect", True),
                  ("taylor-slope-second-order", False)])
    ok, valid, detail = run.judge(1, report, INV)
    assert not ok and valid and "taylor-slope-second-order" in detail
    # exit 0 beside a failing check breaks the exit-code contract
    assert run.judge(0, report, INV)[:2] == (False, False)


def test_gate_flags_a_missing_check_or_report(tmp_path):
    report = tmp_path / "variation_report.json"
    write_report(report, "variation", [("antisymmetric-defect", True)])
    ok, valid, detail = run.judge(0, report, INV)
    assert not ok and not valid and "taylor-slope-second-order" in detail
    assert run.judge(0, tmp_path / "absent.json", INV)[:2] == (False, False)


def test_child_rusage_is_per_child(tmp_path):
    burn = ("import time\n"
            "block = bytearray(96 * 1024 * 1024)\n"
            "end = time.process_time() + 0.3\n"
            "while time.process_time() < end: pass\n")
    heavy = run.run_child([sys.executable, "-c", burn], run.child_env(),
                          tmp_path, tmp_path / "err1")
    idle = run.run_child([sys.executable, "-c", "import time; time.sleep(0.3)"],
                         run.child_env(), tmp_path, tmp_path / "err2")
    assert heavy.returncode == 0 and idle.returncode == 0
    assert heavy.rss_mb > 96 and idle.rss_mb < 48
    assert heavy.cpu_s >= 0.3 and heavy.wall_s >= heavy.cpu_s * 0.9
    assert idle.cpu_s < 0.2 and idle.wall_s >= 0.3


@pytest.mark.parametrize("traced", [False, True])
def test_pass_count_is_fixed_by_the_arguments_not_the_clock(monkeypatch, tmp_path,
                                                            traced):
    """`failed` must repeat for a seed, so the run may not stop on the clock:
    here every clock read jumps 100 s, and the passes still all run."""
    workload = run.WORKLOADS["cloud"]
    clock = iter(range(0, 10**6, 100))
    monkeypatch.setattr(time, "perf_counter", lambda: float(next(clock)))
    monkeypatch.setattr(run, "setup_probe", lambda *args: 0.5)
    passes = []

    def fake_pass(workload, shift, workdir, env, traced=False):
        passes.append(traced)
        trace = {"spans": [], "counts": {}} if traced else None
        return [run.InvocationResult(inv.label, run.ChildRun(0, 1.0, 1.0, 10.0),
                                     True, True, "ok", trace)
                for inv in workload.invocations]

    monkeypatch.setattr(run, "run_pass", fake_pass)
    out = run.measure("cloud", 0, 40, traced, tmp_path, {})
    rounds = workload.passes(40, traced)
    assert rounds > run.MIN_PASSES or traced
    assert passes == [False, True] * rounds if traced else [False] * rounds
    assert out.attempted == len(passes) * len(workload.invocations)


def test_child_timeout_kills_and_reaps(tmp_path):
    start = time.perf_counter()
    child = run.run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                          run.child_env(), tmp_path, tmp_path / "err", timeout=0.5)
    assert child.returncode < 0 and time.perf_counter() - start < 10


FAKE = {
    "__init__.py": "",
    "util.py": "__all__ = ['f', 'g']\n"
               "def f(x):\n    return g(x) + 1\n"
               "def g(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n",
    "reports.py": "class ExperimentReport:\n"
                  "    def write(self, path):\n"
                  "        open(path, 'w').write('{}')\n",
    "cli.py": "from .util import f\n"
              "def main(argv):\n"
              "    from . import reports\n"
              "    reports.ExperimentReport().write(argv[1])\n"
              "    return f(int(argv[0]))\n",
}


def test_tracer_wraps_lazy_imports_and_rebinds_from_imports(tmp_path):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    for name, text in FAKE.items():
        (pkg / name).write_text(text)
    t = tracer.Tracer(package="fakepkg")
    hook = tracer.ImportHook(t)
    sys.path.insert(0, str(tmp_path))
    sys.meta_path.insert(0, hook)
    try:
        import fakepkg.cli
        out = str(tmp_path / "report.json")
        assert fakepkg.cli.main(["2", out]) == 3
        with pytest.raises(ValueError):
            fakepkg.cli.main(["-1", out])
    finally:
        sys.meta_path.remove(hook)
        sys.path.remove(str(tmp_path))
        for name in [n for n in sys.modules if n.split(".")[0] == "fakepkg"]:
            del sys.modules[name]
    names = [s[0] for s in t.spans]
    assert names.count("cli.main") == 2
    assert names.count("util.g") == 2           # reached through util's own binding
    assert names.count("reports.ExperimentReport.write") == 2
    main_index = names.index("cli.main")
    second = names.index("cli.main", main_index + 1)
    by_parent = {s[0]: s[3] for s in t.spans[main_index:second]}
    assert by_parent["util.f"] == main_index    # from-import binding replaced
    assert by_parent["util.g"] == names.index("util.f")
    raised = {s[0] for s in t.spans if s[4]}
    assert raised == {"cli.main", "util.f", "util.g"}
    assert "import.thermofock" in names
    assert t.counts["reports.bytes"] == 4


def test_traced_cli_run_writes_spans_and_counters(tmp_path):
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), str(spans_path), "--",
         "continuum", "--threads", "1", "--outdir", str(tmp_path)],
        env=run.child_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(spans_path.read_text())
    names = [s[0] for s in trace["spans"]]
    assert names[0] == "import.numpy" and "cli.main" in names
    assert "chain.continuum_error" in names
    assert trace["counts"]["reports.bytes"] > 0
    assert trace["counts"]["import.modules"] > 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
