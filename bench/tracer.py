"""Traced entry point: one `thermofock` CLI invocation with a span around
every public function of every loaded `thermofock` module.

    python bench/tracer.py SPANS_JSON -- CLI_ARGS...

The tracer

1. times `import numpy`, and times every `thermofock` module import as it
   happens (eagerly for `thermofock.cli`, lazily inside the runners for the
   rest, as in an untraced run), including whatever the module pulls in;
2. wraps every function named in each imported module's `__all__`, plus
   `ExperimentReport.write` and `cli.main`, and rebinds every name in every
   `thermofock.*` namespace that refers to a wrapped function, so calls made
   through `from .x import f` bindings are traced too;
3. calls `thermofock.cli.main(CLI_ARGS)`;
4. keeps spans (name, start, end, parent index, raised) and work counters in
   memory and writes them to SPANS_JSON at exit.

Span names are `<layer>.<function>`; the layer is the module name.  Work
counters are computed from each call's arguments and result, never from
inside the program.
"""

from __future__ import annotations

import functools
import importlib
import importlib.abc
import importlib.machinery
import inspect
import json
import math
import os
import sys
import time


def self_times(spans) -> dict:
    """Per layer: the sum over its spans of duration minus the time covered
    by their direct children.  Spans come from one thread, so children nest
    inside their parent and never overlap each other."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - child
    return out


# ---------------------------------------------------------------------------
# work counters: (counts, bound arguments, result) -> None
# ---------------------------------------------------------------------------

def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _quad_points(n_max: int) -> int:
    """Size of bargmann's product grid: (n_max + 1) radial x (2 n_max + 3) angular."""
    return (n_max + 1) * (2 * n_max + 3)


def _draws(size_arg):
    def count(counts, args, result):
        _add(counts, "bath.draws", int(args[size_arg]))
    return count


def _partition_draws(counts, args, result):
    if args["method"] == "montecarlo":
        _add(counts, "bath.draws", int(args["samples"]))


def _gram_quadrature(counts, args, result):
    n = int(args["n_max"])
    _add(counts, "bargmann.basis_evals", _quad_points(n) * (n + 1))


def _gram_montecarlo(counts, args, result):
    _add(counts, "bargmann.basis_evals",
         int(args["samples"]) * (int(args["n_max"]) + 1))


def _inner_product(counts, args, result):
    n = args["f"].truncation
    points = (_quad_points(n) if args["method"] == "quadrature"
              else int(args["samples"]))
    _add(counts, "bargmann.basis_evals", points * (n + 1))


def _orbit_steps(counts, args, result):
    _add(counts, "phasespace.orbit_steps", int(args["n_steps"]))


def _ensemble(counts, args, result):
    """Particle steps follow `_advance_cloud`'s step rule between requested
    times; proposals follow from the exact accepted count and the rate."""
    n = int(args["n_samples"])
    dt = args["dt"]
    if dt is None:
        dt = (2.0 * math.pi / args["params"].omega) / 1024.0
    steps = 0
    previous = 0.0
    for t in result.times.tolist():
        if t != previous:
            steps += max(1, math.ceil((t - previous) / dt - 1e-12))
        previous = t
    _add(counts, "dynamics.particle_steps", n * steps)
    _add(counts, "dynamics.accepted", n)
    _add(counts, "dynamics.proposals", round(n / result.acceptance_rate))


def _integrate_chain(counts, args, result):
    snapshots, sites = result.q.shape
    _add(counts, "chain.site_steps",
         (snapshots - 1) * int(args["stride"]) * sites)
    size = result.q.nbytes + result.p.nbytes + result.times.nbytes
    counts["chain.snapshot_bytes"] = max(counts.get("chain.snapshot_bytes", 0), size)


def _report_bytes(counts, args, result):
    _add(counts, "reports.bytes", os.path.getsize(args["path"]))


def _csv(counts, args, result):
    _report_bytes(counts, args, result)
    _add(counts, "reports.csv_rows", len(args["rows"]))


COUNTERS = {
    "bath.sample_equilibrium": _draws("n_samples"),
    "bath.tilt_measure": _draws("n_samples"),
    "bath.sphere_pushforward_check": _draws("n_samples"),
    "bath.partition_estimate": _partition_draws,
    "bargmann.gram_quadrature": _gram_quadrature,
    "bargmann.gram_montecarlo": _gram_montecarlo,
    "bargmann.inner_product": _inner_product,
    "phasespace.hamilton_orbit": _orbit_steps,
    "dynamics.ensemble_evolve": _ensemble,
    "chain.integrate_chain": _integrate_chain,
    "reports.ExperimentReport.write": _report_bytes,
    "reports.write_csv": _csv,
}


class Tracer:
    """Spans and counters of one process, kept in memory until `dump`."""

    def __init__(self, package="thermofock"):
        self.package = package
        self.spans = []      # [name, start, end, parent index or -1, raised]
        self.stack = []
        self.counts = {}
        self.wrapped = {}    # original function -> traced wrapper

    def enter(self, name) -> list:
        span = [name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, False]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def exit(self, span, raised=False):
        span[2] = time.perf_counter()
        span[4] = raised
        self.stack.pop()

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(span, raised=True)
                raise
            self.exit(span)
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, result)
            return result

        return traced

    def instrument(self, module):
        """Wrap the functions named in a package module's `__all__` (plus
        `cli.main` and `ExperimentReport.write`), then rebind every name in
        every loaded package module that still refers to an original."""
        name = module.__name__
        layer = name.split(".")[1]
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == name:
                self.wrapped[fn] = self.wrap(fn, f"{layer}.{attr}")
        if layer == "cli":
            self.wrapped[module.main] = self.wrap(module.main, "cli.main")
        if layer == "reports":
            cls = module.ExperimentReport
            cls.write = self.wrap(cls.write, "reports.ExperimentReport.write")
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith(self.package + ".") and mod is not None:
                for attr, value in list(vars(mod).items()):
                    if inspect.isfunction(value) and value in self.wrapped:
                        setattr(mod, attr, self.wrapped[value])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class ImportHook(importlib.abc.MetaPathFinder):
    """Times the execution of each package module as an `import.thermofock`
    span (what it pulls in included) and instruments each submodule as soon
    as it has run, so the program keeps its own lazy imports."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, fullname, path, target=None):
        package = self.tracer.package
        if fullname != package and not fullname.startswith(package + "."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        run = spec.loader.exec_module

        def exec_module(module):
            span = self.tracer.enter("import.thermofock")
            try:
                run(module)
            except BaseException:
                self.tracer.exit(span, raised=True)
                raise
            self.tracer.exit(span)
            if fullname != package:
                self.tracer.instrument(module)

        spec.loader.exec_module = exec_module
        return spec


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    sys.meta_path.insert(0, ImportHook(tracer))
    loaded = len(sys.modules)
    span = tracer.enter("import.numpy")
    import numpy  # noqa: F401  (every subcommand imports it)
    tracer.exit(span)
    importlib.import_module(f"{tracer.package}.cli")
    try:
        return sys.modules[f"{tracer.package}.cli"].main(cli_args)
    finally:
        tracer.counts["import.modules"] = len(sys.modules) - loaded
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
