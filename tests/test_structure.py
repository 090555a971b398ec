"""Source-level rules for the package: modules share only public names, and
every `__all__` entry names something the module defines."""

import ast
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
