"""The documentation examples run: each partpat module's docstrings and the
README's library session."""

from __future__ import annotations

import doctest
import importlib
import pkgutil
from pathlib import Path

import pytest

import partpat

MODULES = ["partpat"] + sorted(m.name for m in pkgutil.iter_modules(partpat.__path__, "partpat."))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_examples():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0
