"""Rules that every module of partpat's source keeps."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import partpat

MODULES = sorted(Path(partpat.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_assert_statement(path):
    # python -O strips assert statements, so every refusal is an explicit raise
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has an assert statement at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_imports_only_stdlib_and_partpat(path):
    # partpat runs on the standard library alone
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    outside = sorted(
        name for name in names if name.split(".")[0] not in sys.stdlib_module_names | {"partpat"}
    )
    assert outside == [], f"{path.name} imports {outside}"
