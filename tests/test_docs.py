"""The documentation examples run: each partpat module's docstrings and the
README's library session. The package exports each library module's
public names."""

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


def test_package_exports_each_module_list():
    modules = [importlib.import_module(f"partpat.{m}")
               for m in ("containment", "core", "dacp", "enumeration", "formulas")]
    assert sorted(partpat.__all__) == sorted(name for m in modules for name in m.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(partpat, name) is getattr(m, name), name
