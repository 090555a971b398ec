"""Source-level rules for the package: modules share only public names,
every `__all__` entry names something the module defines, every
definition, method, property and field feeds some CLI run, and every line
of the numerical modules runs in the runs that use them."""

import ast
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import thermofock

MODULES = sorted(Path(thermofock.__file__).parent.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_export_is_defined(path):
    tree = _tree(path)
    missing = sorted(set(_declared_all(tree)) - _top_level_names(tree))
    assert not missing, missing


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


def _package_imports(tree, package):
    """(names, modules): local name -> (x, y) for `from .x import y` and
    local name -> x for `from . import x`, wherever the import sits."""
    names, modules = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None and alias.name in package:
                    modules[local] = alias.name
                elif node.module in package:
                    names[local] = (node.module, alias.name)
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


def _reach():
    """Closure from the `cli` runners and `main`; returns (reached, classes).

    `reached` holds (module, name) for top-level definitions and (module,
    class, member) for class members; `classes` maps each reached class to
    its members.  The closure follows a name bound by `from .x import y`, an
    attribute `x.attr` of a module bound by `from . import x`, and a name
    defined in the same module; an import alone reaches nothing.  Reaching a
    class walks its decorators and bases and roots its dunder methods
    (`__post_init__` included); any other member is reached once its name
    appears as an attribute anywhere in reached code."""
    trees = {path.stem: _tree(path) for path in MODULES}
    defs = {mod: _definitions(tree) for mod, tree in trees.items()}
    imports = {mod: _package_imports(tree, trees) for mod, tree in trees.items()}
    todo = [("cli", name) for name in defs["cli"]
            if name == "main" or name.startswith("run_")]
    reached, classes, attrs = set(), {}, set()
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
                         if _is_dunder(name) or name in attrs]
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
    return reached, classes


def test_every_export_is_reachable_from_the_cli():
    """Every `__all__` entry and every top-level function or class feeds
    some run of the closure in `_reach`."""
    trees = {path.stem: _tree(path) for path in MODULES}
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


# Modules every line of whose functions must run in these invocations: the
# bracket modules, which serve a02 and the single-oscillator runs,
# `dynamics`, which serves evolve, damp and ensemble, `chain`, which serves
# the five chain runs, `bath`, which serves partition, variation, tilt and
# sphere, `bargmann`, which serves gram, coherent and the states of the
# others, `fits`, `reports`, which writes every run's report and tables, and
# `errors`, whose size check every array-sizing run makes.
LINE_REACH_MODULES = ("exact", "phasespace", "dynamics", "chain", "bath",
                      "bargmann", "fits", "reports", "errors")
LINE_REACH_INVOCATIONS = (
    "partition --seed 7",
    "tilt --seed 1",
    "sphere --seed 21",
    "variation --seed 1",
    "gram",
    # the Monte Carlo Gram route
    "gram --samples 1000 --seed 7",
    "coherent",
    "commutator --hbar 1 --nmax 16",
    "commutator --hbar 0.5 --nmax 32",
    "commutator --hbar 2 --nmax 64",
    "commutator --hbar 1 --nmax 64",
    "damp",
    # past alpha = 0.1 omega the closed form warns (and its checks fail)
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
    "mode-commutator",
)
# `if` statements whose body no invocation enters, by module, function and
# test, each named where CHANGES.md says why no CLI run reaches it yet.
LINE_REACH_ALLOWED = {
    # the upwind transport route, which no CLI run checks (FOUND line)
    ("dynamics", "transport_solve", "scheme == 'upwind'"),
    # taps past the first block of the window buffer: kernels wider than
    # 2**17 taps, strides past 65 535
    ("chain", "integrate_chain", "add"),
    # an unexcited mode, and a peak without curvature: a thermal state
    # excites every mode with a curved peak, so only tests reach these
    ("chain", "spectral_dispersion", "peak <= 1e-12 * scale"),
    ("chain", "spectral_dispersion", "denom >= 0.0"),
}

# Traces the invocations in argv[2:], each run in-process through cli.main
# into a temporary directory, from before the package is imported, and
# prints the lines each file in the JSON list argv[1] executed.
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

with tempfile.TemporaryDirectory() as outdir:
    for line in sys.argv[2:]:
        cli.main(shlex.split(line) + ["--outdir", outdir])
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


def _allowed_lines():
    """LINE_REACH_ALLOWED entry -> (the lines of the `if` statement it names
    from its test to the end of its body, the lines of that body).  The test
    may run or not; the body must not; an `else` is not excused."""
    found = {entry: (set(), set()) for entry in LINE_REACH_ALLOWED}
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not isinstance(node, ast.FunctionDef):
                continue
            for sub in ast.walk(node):
                entry = (path.stem, node.name,
                         ast.unparse(sub.test) if isinstance(sub, ast.If) else None)
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
             if path.stem in LINE_REACH_MODULES}
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
                      if mod == path.stem for line in lines}
               for name, path in paths.items()}
    bodies = {name: {line for (mod, *_), (_, lines) in found.items()
                     if mod == path.stem for line in lines}
              for name, path in paths.items()}
    missed = sorted(
        f"{path.name}:{line}" for name, path in paths.items()
        for line in _function_lines(path) - set(ran[name]) - excused[name])
    stale = sorted(f"{path.name}:{line}" for name, path in paths.items()
                   for line in bodies[name] & set(ran[name]))
    assert not missed, "lines no run executes: " + ", ".join(missed)
    assert not stale, "allowlisted lines that a run executes: " + ", ".join(stale)
