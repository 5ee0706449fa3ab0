"""The package imports nothing beyond the standard library and numpy,
only ``matcore`` names the factorizations of ``numpy.linalg``, and every
public function has a caller outside the tests."""

import ast
import sys
from pathlib import Path

import pytest

import qcopula
from test_readme import quick_start_code

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "qcopula"}
FACTORIZATIONS = {"eigh", "eigvalsh", "inv", "solve", "cholesky"}
SOURCES = sorted(Path(qcopula.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(qcopula.__file__).resolve().parents[2] / "perfbench").glob("*.py"))
# public functions with no caller in src/, perfbench/ or the README quick start
UNCALLED = {
    "choi.apply": "the public Phi, which the solver applies through choi._forward",
    "choi.apply_adjoint": "the public Phi*, which the solver applies through choi._adjoint",
    "copula.copula_invariants": "the only local-unitary fingerprint of a copula the package returns",
}


def parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


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
    tree = parse(path)
    assert imported_roots(tree) - ALLOWED == set()


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_matcore_names_the_factorizations(path):
    # matcore's LAPACK helpers are the one route to eigh, eigvalsh, inv,
    # solve and cholesky; its fallback names all five
    tree = parse(path)
    want = FACTORIZATIONS if path.name == "matcore.py" else set()
    assert linalg_factorizations(tree) == want


def names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Every name and attribute ``tree`` reads or binds outside ``skip``;
    docstrings and comments name nothing."""
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped
    }


TREES = {path.stem: parse(path) for path in SOURCES}
PUBLIC_FUNCTIONS = {
    f"{module}.{node.name}": node
    for module, tree in TREES.items()
    for node in tree.body
    if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
}
OUTSIDE_SRC = set().union(*map(names, map(parse, PERFBENCH)), names(ast.parse(quick_start_code())))


def test_public_functions_found():
    assert {"copula.copula_of", "choi.apply", "states.ppt_verdict"} <= set(PUBLIC_FUNCTIONS)
    assert PERFBENCH


@pytest.mark.parametrize("name", PUBLIC_FUNCTIONS)
def test_public_function_is_called(name):
    # a public function only the tests call is code to delete; the few kept
    # on purpose sit on UNCALLED with their reason
    node = PUBLIC_FUNCTIONS[name]
    used = set(OUTSIDE_SRC)
    for tree in TREES.values():
        used |= names(tree, skip=node)
    if name in UNCALLED:
        assert node.name not in used, f"{name} has a caller now; drop it from UNCALLED"
    else:
        assert node.name in used, f"{name} has no caller outside the tests"
