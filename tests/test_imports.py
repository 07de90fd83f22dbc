"""Every name a module of the package imports is used in that module, and
the package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubekit"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; ``__future__`` imports and
    names listed in ``__all__`` count as used."""
    tree = ast.parse(source)
    bound = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_unused_imports_are_found():
    src = "import os, sys as system\nfrom a.b import c, d as e\nprint(os, e)\n"
    assert unused_imports(src) == ["c", "system"]
    assert unused_imports("from x import y\n__all__ = ['y']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def foreign_imports(source: str) -> list[str]:
    """Top-level names of imported modules that are neither in the standard
    library nor numpy nor this package (relative imports are the package)."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "cubekit"}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return sorted(found - allowed)


def test_foreign_imports_are_found():
    src = "import os, numpy.linalg\nfrom scipy.sparse import csr_matrix\nfrom . import median\n"
    assert foreign_imports(src) == ["scipy"]
    assert foreign_imports("def f():\n    import networkx as nx\n") == ["networkx"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_stdlib_and_numpy_are_imported(path):
    assert foreign_imports(path.read_text()) == []
