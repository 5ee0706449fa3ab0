"""Every error class is raised or caught somewhere in the package."""

import ast
import re
from pathlib import Path

import pytest

import qcopula

PACKAGE = Path(qcopula.__file__).parent
ERROR_CLASSES = [
    node.name
    for node in ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8")).body
    if isinstance(node, ast.ClassDef)
]


def test_error_classes_found():
    assert {"QcopulaError", "InvalidInput", "NotConverged"} <= set(ERROR_CLASSES)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_error_class_is_used(name):
    # a class that no other module names is code only tests can reach
    pattern = re.compile(rf"\b{name}\b")
    users = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "errors.py" and pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert users, f"errors.{name} is named nowhere else in the package"
