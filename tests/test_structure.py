"""Source-level rules for the package: modules share only public names,
every `__all__` entry names something the module defines, `errors` alone
formats the refusal of a float that left the float range, every
definition, method, property and field feeds some CLI run, every flag
feeds its command's run, and every line of every module, the CLI and its
command runners included, runs in the runs that use it."""

import argparse
import ast
import inspect
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import thermofock

PACKAGE = Path(thermofock.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py")) + sorted(PACKAGE.glob("commands/*.py"))


def _name(path):
    """A module's dotted name below the package: `cli`, `commands.gram`;
    a package's own file is `__init__` or `commands.__init__`."""
    return ".".join(path.relative_to(PACKAGE).with_suffix("").parts)


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_no_private_name_is_imported_across_modules(path):
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} "
        f"import {alias.name}"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("thermofock"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def test_no_test_reads_a_private_cli_name():
    # tests drive the CLI through its public names, `evaluate` and `main`
    private = [
        f"{path.name}:{node.lineno}: cli.{node.attr}"
        for path in sorted(Path(__file__).parent.glob("*.py"))
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and getattr(node.value, "id", None) == "cli"]
    assert not private, private


def _top_level_names(tree):
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets
                         if isinstance(target, ast.Name))
    return names


def _declared_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=_name)
def test_every_export_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_declared_all(tree)) - _top_level_names(tree))
    assert not missing, missing


def test_errors_alone_sets_the_block_budget():
    # every blocked pass states its floats per item and takes
    # errors.block_width of the one budget, so no other module defines a
    # *_FLOATS constant.  errors declares no __all__: bench/tracer.py wraps
    # the functions an __all__ names, and bench/run.py counts only the
    # layers it knows, so a traced block_width would fail every traced run
    budgets = sorted(f"{_name(path)}.{name}" for path in MODULES
                     for name in _definitions(_tree(path))
                     if name.endswith("_FLOATS"))
    assert budgets == ["errors.BLOCK_FLOATS", "errors.MAX_SNAPSHOT_FLOATS"]
    assert "__all__" not in _definitions(_tree(PACKAGE / "errors.py"))


# The functions that format a FloatingPointError's message around a value
# and end it "must be finite" or "must be positive and finite":
# errors.check_finite alone, which every other module calls, and the energy
# a variation step reaches, whose message names the step dt after the value.
FINITE_REFUSALS = {("errors", "check_finite"),
                   ("bath", "gibbs_first_order_defect")}


def _finite_refusals(path):
    """(module, function) of each FloatingPointError in `path` built from
    an f-string message that formats a value and ends in `finite`."""
    found = set()

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call)
                    and getattr(child.func, "id", None) == "FloatingPointError"
                    and child.args and isinstance(child.args[0], ast.JoinedStr)):
                text = "".join(part.value if isinstance(part, ast.Constant)
                               else "{}" for part in child.args[0].values)
                if "{}" in text and text.rstrip().endswith("finite"):
                    found.add((_name(path), function))
            visit(child, function)

    visit(_tree(path), None)
    return found


def test_errors_alone_formats_a_finite_refusal():
    # a run that leaves the float range is refused by errors.check_finite,
    # "{what} = {value:g} must be finite", so every such message has one
    # definition; errors and phasespace import no numpy
    assert set().union(*map(_finite_refusals, MODULES)) == FINITE_REFUSALS
    for name in ("errors", "phasespace"):
        imported = {(node.module or "") if isinstance(node, ast.ImportFrom)
                    else alias.name
                    for node in ast.walk(_tree(PACKAGE / f"{name}.py"))
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        assert not {module for module in imported
                    if module.split(".")[0] == "numpy"}, name


def _rounds_a_span_over_a_step(node):
    """`node` is math.ceil(... - 1e-12), the step rule's rounding."""
    return (isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None))
            == "ceil"
            and len(node.args) == 1 and isinstance(node.args[0], ast.BinOp)
            and isinstance(node.args[0].op, ast.Sub)
            and isinstance(node.args[0].right, ast.Constant)
            and node.args[0].right.value == 1e-12)


def test_errors_alone_cuts_a_span_into_steps():
    # every stepped run takes its step count from errors.step_count and is
    # capped by errors.check_steps, so no other module rounds a span over a
    # step or defines a *_STEPS cap of its own
    rounding = sorted({_name(path) for path in MODULES
                       for node in ast.walk(_tree(path))
                       if _rounds_a_span_over_a_step(node)})
    assert rounding == ["errors"]
    caps = sorted(f"{_name(path)}.{name}" for path in MODULES
                  for name in _definitions(_tree(path))
                  if name.endswith("_STEPS"))
    assert caps == ["errors.MAX_STEPS"]


def test_check_finite_returns_the_value_or_names_it():
    from thermofock.errors import check_finite

    assert check_finite(-2.5, "x") == -2.5
    assert check_finite(5e-324, "x", positive=True) == 5e-324
    for value, positive, message in (
            (math.inf, False, "run length 10/omega = inf must be finite"),
            (math.nan, False, "run length 10/omega = nan must be finite"),
            (0.0, True, "run length 10/omega = 0 must be positive and finite"),
            (-1.0, True,
             "run length 10/omega = -1 must be positive and finite")):
        with pytest.raises(FloatingPointError) as caught:
            check_finite(value, "run length 10/omega", positive)
        assert str(caught.value) == message


def test_block_widths_are_pinned(monkeypatch, tmp_path):
    # the widths the blocked passes take from the one budget at the sizes
    # the benchmark runs and a few larger ones, read off the passes
    # themselves: a change to errors.BLOCK_FLOATS or to a pass's floats per
    # item moves one of them
    import numpy as np
    from thermofock import bargmann, bath, chain, errors, reports

    seen = []

    def recorder(what, fn):
        def recorded(*args, **kwargs):
            seen.append((what, args))
            return fn(*args, **kwargs)
        return recorded

    def calls(what, run):
        """The arguments of each recorded call of `what` while run() runs."""
        seen.clear()
        run()
        return [args for name, args in seen if name == what]

    for module in (bargmann, chain, reports):
        monkeypatch.setattr(module, "point_blocks",
                            recorder(module.__name__, errors.point_blocks))
    monkeypatch.setattr(bath, "_energy", recorder("draws", bath._energy))
    monkeypatch.setattr(chain, "chain_energy",
                        recorder("energy", chain.chain_energy))

    # rows of a CSV table, 8 floats a cell: damp's 5 columns and relax's 2
    for fields, width in ((5, 1638), (2, 4096)):
        table = np.rec.fromarrays([np.zeros(5000)] * fields,
                                  names=[f"c{n}" for n in range(fields)])
        assert calls(reports.__name__, lambda: reports.write_csv(
            tmp_path / "table.csv", table)) == [(5000, width)]
    # gram's points, 4 (n_max + 1) floats each, capped at POINT_BLOCK
    assert calls(bargmann.__name__, lambda: bargmann.gram_montecarlo(
        16, 1.0, 2000, 7)) == [(2000, 963)]
    # partition's points, 2n normals each, capped at POINT_BLOCK
    for pairs, width in ((1, 4096), (50, 655)):
        assert max(x.shape[1] for _, x in calls("draws", lambda: (
            bath.partition_estimate(np.eye(2 * pairs), 1.0,
                                    method="montecarlo", samples=5000,
                                    seed=1)))) == width
    for n, amplitude_rows, energy_rows in ((256, 64, 256), (1024, 16, 64)):
        params = chain.ChainParams(n_sites=n)
        # rows of the mode transform, 4N floats each
        assert calls(chain.__name__, lambda: chain.mode_amplitudes(
            np.zeros((2, n)), np.zeros((2, n)), params)) == [
                (2, amplitude_rows)]
        # rows of the stability check, N floats each
        assert max(len(q) for q, *_ in calls("energy", lambda: (
            chain.integrate_chain(np.zeros(n), np.ones(n), params,
                                  duration=300 * 0.05, dt=0.05)))
                   if np.ndim(q) == 2) == energy_rows
    # window sites at stride 12, 2w = 54 floats each
    assert calls(chain.__name__, lambda: chain.integrate_chain(
        np.zeros(2048), np.ones(2048), chain.ChainParams(n_sites=2048),
        duration=0.6, dt=0.05, stride=12)) == [(2048, 1213)]
    # rows of the spectrum's rfft, N + 2 floats each, on 8 snapshots
    for n, rfft_rows in ((256, 254), (1024, 63)):
        traj = chain.integrate_chain(np.zeros(n), np.zeros(n),
                                     chain.ChainParams(n_sites=n),
                                     duration=0.35, dt=0.05, momenta=False)
        assert calls(chain.__name__, lambda: chain.spectral_dispersion(
            traj, chain.ChainParams(n_sites=n)))[0] == (8, rfft_rows)
    # spectrum columns at a09's 2096 snapshots, 2096 floats each: the
    # N/2 + 1 columns of 16 sites
    snapshots = np.ones((2096, 18))
    q = snapshots.reshape(-1)[:2096 * 16].reshape(2096, 16)
    traj = chain.ChainTrajectory(0.1 * np.arange(2096), snapshots,
                                 np.zeros(2096), q, q[:, :0])
    assert calls(chain.__name__, lambda: chain.spectral_dispersion(
        traj, chain.ChainParams(n_sites=16)))[-1] == (9, 31)
    assert errors.SAMPLE_BLOCK == 32768


def _definitions(tree):
    """Top-level name -> the nodes that bind it (defs, classes, assignments)."""
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.setdefault(node.name, []).append(node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    defs.setdefault(target.id, []).append(node)
    return defs


def _package_imports(mod, tree, trees):
    """(names, modules) of module `mod`: local name -> (x, y) for a name y
    bound by `from .x import y` or `from ..x import y`, or by `from . import
    y` where y is defined in the package's `__init__`; local name -> x for a
    module x bound by `from . import x` or `from .. import x`.  Wherever the
    import sits; `x` is a key of `trees`, as `_name` gives it."""
    package = mod.split(".")[:-1]
    names, modules = {}, {}

    def key(parts):
        dotted = ".".join(parts)
        return dotted if dotted in trees else ".".join([*parts, "__init__"])

    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        base = package[:len(package) - node.level + 1]
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is not None:
                names[local] = (key([*base, *node.module.split(".")]),
                                alias.name)
            elif key([*base, alias.name]) in trees:
                modules[local] = key([*base, alias.name])
            else:
                names[local] = (key(base), alias.name)
    return names, modules


def _members(cls):
    """Member name -> node for the methods, properties, dataclass fields and
    class-level assignments in a class body."""
    members = {}
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            members[node.name] = node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            members[node.target.id] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    members[target.id] = node
    return members


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _fields(cls):
    """The field names of the class `cls` (a ClassDef), if a dataclass."""
    if not any("dataclass" in ast.unparse(d) for d in cls.decorator_list):
        return set()
    return {node.target.id for node in cls.body
            if isinstance(node, ast.AnnAssign)}


def _reach():
    """Closure from `cli.main` and each command module's `run`; returns
    (reached, classes).

    `reached` holds (module, name) for top-level definitions and (module,
    class, member) for class members; `classes` maps each reached class to
    its members.  The closure follows a name a relative import binds, an
    attribute `x.attr` of a module a relative import binds (see
    `_package_imports`), and a name defined in the same module; an import
    alone reaches nothing.  `cli.RUNNERS` imports the command modules by
    name, which the closure cannot follow, so each `run` is a root.
    Reaching a class walks its decorators and bases and roots its dunder
    methods (`__post_init__` included); any other member is reached once
    its name appears as an attribute anywhere in reached code.  A call to
    `asdict` in reached code reads every field of the dataclasses its
    module defines."""
    trees = {_name(path): _tree(path) for path in MODULES}
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    imports = {mod: _package_imports(mod, tree, trees)
               for mod, tree in trees.items()}
    todo = [("cli", "main")] + [(mod, "run") for mod in trees
                                if mod.startswith("commands.")
                                and mod != "commands.__init__"]
    reached, classes, attrs, dumped = set(), {}, set(), set()
    while todo:
        key = todo.pop()
        mod = key[0]
        if key in reached or (len(key) == 2 and key[1] not in defs.get(mod, {})):
            continue
        reached.add(key)
        if len(key) == 3:
            nodes = [classes[key[:2]][key[2]]]
        else:
            nodes = []
            for node in defs[mod][key[1]]:
                if not isinstance(node, ast.ClassDef):
                    nodes.append(node)
                    continue
                members = classes[key] = _members(node)
                nodes += [*node.decorator_list, *node.bases, *node.keywords]
                todo += [(*key, name) for name in members
                         if _is_dunder(name) or name in attrs
                         or (mod in dumped and name in _fields(node))]
        names, modules = imports[mod]
        for sub in (sub for node in nodes for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                if sub.id in defs[mod]:
                    todo.append((mod, sub.id))
                elif sub.id in names:
                    todo.append(names[sub.id])
            elif isinstance(sub, ast.Attribute):
                if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    todo.append((modules[sub.value.id], sub.attr))
                if sub.attr not in attrs:
                    attrs.add(sub.attr)
                    todo += [(*cls, sub.attr) for cls, members in classes.items()
                             if sub.attr in members]
            elif (isinstance(sub, ast.Call) and mod not in dumped
                  and "asdict" in (getattr(sub.func, "id", None),
                                   getattr(sub.func, "attr", None))):
                dumped.add(mod)
                todo += [(*cls, name) for cls in classes if cls[0] == mod
                         for name in _fields(defs[mod][cls[1]][0])]
    return reached, classes


def test_every_export_is_reachable_from_the_cli():
    """Every `__all__` entry and every top-level function or class feeds
    some run of the closure in `_reach`."""
    trees = {_name(path): _tree(path) for path in MODULES}
    reached, _ = _reach()
    unreached = sorted(
        f"{mod}.{name}" for mod, tree in trees.items()
        for name in set(_declared_all(tree)) | {
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))}
        if (mod, name) not in reached)
    assert not unreached, (f"{len(unreached)} definitions no CLI run reaches: "
                           + ", ".join(unreached))


# Members no CLI run reads, kept because tests compare them against
# independent references.
UNREACHED_BY_DESIGN = set()


def test_every_member_is_reachable_from_the_cli():
    """Every method, property and field of a reached class feeds some run,
    bar the few in UNREACHED_BY_DESIGN, each of which must still be
    unreached."""
    reached, classes = _reach()
    unreached = {(*cls, name) for cls, members in classes.items()
                 for name in members if (*cls, name) not in reached}
    extra = sorted(".".join(key) for key in unreached - UNREACHED_BY_DESIGN)
    stale = sorted(".".join(key) for key in UNREACHED_BY_DESIGN - unreached)
    assert not extra, (f"{len(extra)} members no CLI run reaches: "
                       + ", ".join(extra))
    assert not stale, "allowlisted members that a run now reaches: " + ", ".join(stale)


def _args_read(nodes) -> set:
    """The attributes read off a name `args` anywhere in `nodes`."""
    return {node.attr for root in nodes for node in ast.walk(root)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_flag_feeds_its_run():
    """Each subcommand's flags, bar --outdir and --threads, which `cli`
    itself reads, are read as `args.<dest>` by the command's runner module
    or by a `commands` helper it imports: a flag no run reads cannot be
    declared."""
    from thermofock import cli

    helpers = {node.name: node for node in _tree(PACKAGE / "commands"
                                                 / "__init__.py").body
               if isinstance(node, ast.FunctionDef)}
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    unread = []
    for command, subparser in sub.choices.items():
        tree = _tree(PACKAGE / "commands" / (command.replace("-", "_")
                                             + ".py"))
        imported = [helpers[alias.name] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module is None
                    for alias in node.names if alias.name in helpers]
        read = _args_read([tree, *imported])
        unread += [f"{command} {action.option_strings[-1]}"
                   for action in subparser._actions
                   if action.option_strings and action.dest != "help"
                   and action.dest not in ("outdir", "threads")
                   and action.dest not in read]
    assert unread == []


# Modules every line of whose functions must run in these invocations:
# `phasespace`, whose bracket serves a02 and whose steps serve the
# single-oscillator runs,
# `dynamics`, which serves evolve, damp and ensemble, `chain`, which serves
# the five chain runs, `bath`, which serves partition, variation, tilt and
# sphere, `bargmann`, which serves gram, coherent and the states of the
# others, `fits`, `reports`, which writes every run's report and tables,
# `errors`, whose size check every array-sizing run makes, `cli`, which
# parses and dispatches every run, and `commands`, the package of the
# runners (every module in it).
LINE_REACH_MODULES = ("phasespace", "dynamics", "chain", "bath", "bargmann",
                      "fits", "reports", "errors", "cli", "commands")
# Each runs in the same temporary working directory, after those before it,
# with no --outdir but its own.
LINE_REACH_INVOCATIONS = (
    "partition --seed 7",
    "tilt --seed 1",
    "sphere --seed 21",
    "variation --seed 1",
    "gram",
    # the Monte Carlo Gram route, its count in scientific notation
    "gram --samples 1e3 --seed 7",
    "coherent",
    "commutator --hbar 1 --nmax 16",
    "commutator --hbar 0.5 --nmax 32",
    "commutator --hbar 2 --nmax 64",
    "commutator --hbar 1 --nmax 64",
    "damp",
    # 1019 steps: the orbit ends on a partial stride of 3
    "damp --alpha 0.2",
    "ensemble --seed 7",
    "ensemble --c 1.2 --seed 7",
    # the vacuum: trailing zeros trimmed, a proposal centred at 0
    "ensemble --c 0 --nmax 300 --samples 1000 --seed 1",
    "evolve --seed 1",
    # one coefficient: both routes give the same constant profile
    "evolve --nmax 0 --seed 1",
    "chain-dispersion --seed 42",
    "relax --seed 5",
    # without friction: the control branch, no amplitudes read
    "relax --alpha 0 --seed 5",
    "rescale --seed 1",
    "continuum",
    "mode-commutator --threads 1",
    # flag values the parser refuses: not a number, and a real out of its
    # domain after a power of two it takes
    "coherent --hbar x",
    "relax --sites 16 --dt 0",
    # a cross-flag usage error a runner raises, after spacings it takes
    "continuum --spacings 1,0.5 --k-phys 4",
    # a numerical failure: 2 beta R^2 below the normal float range
    "sphere --omega 1e308 --seed 21",
    # one past the array cap: its float count written to three digits
    "tilt --samples 1e300 --seed 1",
    # over the fold cap at fewer than 1000 times, a count :.3g writes whole
    "ensemble --n-times 999 --samples 262145 --seed 1",
    # an --outdir that names the report file `coherent` wrote above
    "coherent --outdir coherent_report.json",
    # a report path that is a directory: the first run makes it one
    "coherent --outdir blocked/coherent_report.json",
    "coherent --outdir blocked",
)
# `if` statements and `except` clauses whose body no invocation enters, by
# module, function and test (`except <type>` for a clause), each named where
# CHANGES.md says why no CLI run reaches it yet.
LINE_REACH_ALLOWED = {
    # the upwind transport route, which no CLI run checks (FOUND line)
    ("dynamics", "transport_solve", "scheme == 'upwind'"),
    # an exception outside the exit-code contract: a fault of the program,
    # which no valid invocation raises; test_cli's monkeypatched runners
    # reach it
    ("cli", "evaluate", "except Exception"),
}

# Traces the invocations in argv[2:], each run in-process through cli.main
# in a temporary working directory, from before the package is imported,
# and prints the lines each file in the JSON list argv[1] executed.
_LINE_REACH_CHILD = """
import json, os, shlex, sys, tempfile

ran = {path: set() for path in json.loads(sys.argv[1])}
seen = {}

def trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in seen:
        seen[name] = ran.get(os.path.realpath(name))
    lines = seen[name]
    if lines is None:
        return None

    def local(frame, event, arg):
        lines.add(frame.f_lineno)
        return local

    return local(frame, event, arg)

sys.settrace(trace)
from thermofock import cli

os.environ.pop("THERMOFOCK_OUTDIR", None)
home = os.getcwd()
with tempfile.TemporaryDirectory() as workdir:
    os.chdir(workdir)
    for line in sys.argv[2:]:
        try:
            cli.main(shlex.split(line))
        except SystemExit:
            pass
    os.chdir(home)
sys.settrace(None)
print(json.dumps({path: sorted(lines) for path, lines in ran.items()}))
"""


def _function_lines(path):
    """Lines holding code of the functions and methods in `path`, less the
    lines of a `raise` statement."""
    source = path.read_text(encoding="utf-8")
    raising = {line for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Raise)
               for line in range(node.lineno, node.end_lineno + 1)}
    lines, todo = set(), [compile(source, str(path), "exec")]
    while todo:
        code = todo.pop()
        todo += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:    # not a module or class body
            lines.update(line for _, _, line in code.co_lines() if line)
    return lines - raising


def _clause(node):
    """How LINE_REACH_ALLOWED names an `if` statement or `except` clause."""
    if isinstance(node, ast.If):
        return ast.unparse(node.test)
    if isinstance(node, ast.ExceptHandler) and node.type:
        return f"except {ast.unparse(node.type)}"
    return None


def _allowed_lines():
    """LINE_REACH_ALLOWED entry -> (the lines of the `if` statement or
    `except` clause it names from its test to the end of its body, the lines
    of that body).  The test may run or not; the body must not; an `else`
    is not excused."""
    found = {entry: (set(), set()) for entry in LINE_REACH_ALLOWED}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in ast.walk(node):
                entry = (_name(path), node.name, _clause(sub))
                if entry in found:
                    excused, body = found[entry]
                    end = sub.body[-1].end_lineno + 1
                    excused.update(range(sub.lineno, end))
                    body.update(range(sub.body[0].lineno, end))
    return found


def test_every_bracket_module_line_runs():
    """Running the LINE_REACH_INVOCATIONS executes every function line of
    the modules in LINE_REACH_MODULES that is not part of a `raise` or of an
    allowlisted `if` up to the end of its body, and no line of such a body.
    They run in a fresh interpreter, so the constants the modules build as
    they are imported count as part of every run."""
    paths = {os.path.realpath(path): path for path in MODULES
             if _name(path).split(".")[0] in LINE_REACH_MODULES}
    package_root = str(Path(thermofock.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", _LINE_REACH_CHILD, json.dumps(sorted(paths)),
         *LINE_REACH_INVOCATIONS],
        capture_output=True, text=True, env=env, check=True)
    ran = json.loads(child.stdout.splitlines()[-1])
    found = _allowed_lines()
    gone = sorted(".".join(entry) for entry, lines in found.items() if not lines[0])
    assert not gone, "allowlisted `if` statements not found: " + ", ".join(gone)
    excused = {name: {line for (mod, *_), (lines, _) in found.items()
                      if mod == _name(path) for line in lines}
               for name, path in paths.items()}
    bodies = {name: {line for (mod, *_), (_, lines) in found.items()
                     if mod == _name(path) for line in lines}
              for name, path in paths.items()}
    missed = sorted(
        f"{path.name}:{line}" for name, path in paths.items()
        for line in _function_lines(path) - set(ran[name]) - excused[name])
    stale = sorted(f"{path.name}:{line}" for name, path in paths.items()
                   for line in bodies[name] & set(ran[name]))
    assert not missed, "lines no run executes: " + ", ".join(missed)
    assert not stale, "allowlisted lines that a run executes: " + ", ".join(stale)
