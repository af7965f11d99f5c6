"""Static checks over the package source, using only the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tempt"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_detector_flags_only_unread_names():
    assert unused_imports("import os\nfrom a import b, c as d\nos.sep\nd()\n") == ["line 2: b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def raised_names(source: str) -> set[str]:
    """Names after ``raise``, called (``raise X(...)``) or bare (``raise X``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def test_every_error_class_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text())
    classes = {node.name for node in errors.body if isinstance(node, ast.ClassDef)} - {"TemptError"}
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    assert sorted(classes - raised) == []


def vacuous_asserts(source: str) -> list[int]:
    """Lines of ``assert ... or True``: the last operand makes the assertion always pass."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Assert)
        and isinstance(node.test, ast.BoolOp)
        and isinstance(node.test.op, ast.Or)
        and isinstance(node.test.values[-1], ast.Constant)
        and node.test.values[-1].value is True
    ]


def test_vacuous_assert_detector_flags_only_a_trailing_or_true():
    source = "assert a or True\nassert a or b\nassert True or a\nassert a or 1\nassert (a or b or True), 'm'\n"
    assert vacuous_asserts(source) == [1, 5]


@pytest.mark.parametrize("path", sorted(TESTS.rglob("*.py")), ids=lambda p: p.name)
def test_no_vacuous_asserts(path):
    assert vacuous_asserts(path.read_text()) == []
