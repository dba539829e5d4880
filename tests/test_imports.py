"""Import hygiene of the package, read from the source with ``ast``: every
module uses what it imports, every public name has a caller in the package,
and the certificates reach the assembly only through its public names."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import nagaoka

PACKAGE = Path(nagaoka.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(tree) -> dict[str, tuple[str, str]]:
    """Bound name -> (module, imported name) for every import of a module."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = (alias.name, alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module or "", alias.name)
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(set(_imports(tree)) - used) == []


def _named(node) -> Counter:
    """How often each name is read, imported or taken as an attribute below ``node``."""
    named = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            named[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            named[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            named[sub.name] += 1
    return named


def test_every_public_definition_has_a_caller_in_the_package():
    # the supported surface is the CLI, the criteria and what they call: a
    # public function or class that only its own body (or __init__) names
    # belongs in the tests, or nowhere
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    named = sum((_named(tree) for tree in trees.values()), Counter())
    uncalled = [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and named[node.name] == _named(node)[node.name]]
    assert uncalled == []


def test_positivity_imports_no_private_assembly_name():
    tree = ast.parse((PACKAGE / "positivity.py").read_text(encoding="utf-8"))
    private = sorted(name for module, name in _imports(tree).values()
                     if module in ("hamiltonian", "manybody") and name.startswith("_"))
    assert private == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_private_spectral_name(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = sorted(name for module, name in _imports(tree).values()
                     if module == "spectral" and name.startswith("_"))
    assert private == []


def test_cli_import_loads_no_acceptance_and_no_process_pool():
    # every command pays the start-up; only reproduce and --jobs > 1 need
    # these, and the argument parser is built by the first main call
    code = ("import argparse, gc, sys, nagaoka.cli; "
            "print(sorted(m for m in sys.modules if m == 'nagaoka.acceptance' "
            "or m.split('.')[0] == 'multiprocessing'), "
            "sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects()))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "[] 0\n"
