"""Import hygiene of the package, read from the source with ``ast``: every
module uses what it imports, and the certificates reach the assembly only
through its public names."""

import ast
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
