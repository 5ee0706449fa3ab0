"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

import pytest

import qcopula

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qcopula"}
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


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "copula.py", "matcore.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_stdlib_and_numpy(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert imported_roots(tree) - ALLOWED == set()
