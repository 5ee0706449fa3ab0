"""The package imports nothing beyond the standard library and numpy, and
only ``matcore`` names the factorizations of ``numpy.linalg``."""

import ast
import sys
from pathlib import Path

import pytest

import qcopula

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qcopula"}
FACTORIZATIONS = {"eigh", "eigvalsh", "inv", "solve", "cholesky"}
SOURCES = sorted(Path(qcopula.__file__).parent.glob("*.py"))


def imported_roots(tree: ast.AST) -> set[str]:
    """Top-level names of every absolute import in ``tree``."""
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def linalg_factorizations(tree: ast.AST) -> set[str]:
    """Each factorization of ``numpy.linalg`` that ``tree`` names, as an
    attribute of something called ``linalg`` or imported from it."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in FACTORIZATIONS:
            owner = node.value
            name = owner.attr if isinstance(owner, ast.Attribute) else getattr(owner, "id", "")
            if name == "linalg":
                found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found.update(alias.name for alias in node.names if alias.name in FACTORIZATIONS)
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "copula.py", "matcore.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imported_roots(tree) - ALLOWED == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_matcore_names_the_factorizations(path):
    # matcore's LAPACK helpers are the one route to eigh, eigvalsh, inv,
    # solve and cholesky; its fallback names all five
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    want = FACTORIZATIONS if path.name == "matcore.py" else set()
    assert linalg_factorizations(tree) == want
