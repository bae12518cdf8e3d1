"""Rules that every module of partpat's source keeps."""

from __future__ import annotations

import ast
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
