"""Every module-level import in the package and the tests is used.

The package's ``__init__.py`` re-exports names, and ``from __future__``
imports change how a module compiles, so neither is checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "lcsgame").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "tests").glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound -> line, for each import statement at module level."""
    out = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                out[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                out[alias.asname or alias.name] = stmt.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    return used


def _unused(source: str) -> list[str]:
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(f"line {line}: {name}" for name, line in _imported(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_level_import(path):
    assert _unused(path.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os, sys as system\n"
           "from typing import Any, Hashable\n"
           "def f(x: 'Hashable') -> None:\n"
           "    return os.sep\n")
    assert _unused(src) == ["line 2: system", "line 3: Any"]
