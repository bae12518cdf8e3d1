"""The documentation examples run: each partpat module's docstrings and the
README's library session. The package exports each library module's
public names, the README names every scan flag, neither the README nor
``partpat --help`` names a flag the CLI lacks, each text that states a
resource cap gives the figure the code holds, and the package's version
agrees with pyproject.toml."""

from __future__ import annotations

import argparse
import doctest
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import partpat
from partpat import cli, enumeration

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
MODULES = ["partpat"] + sorted(m.name for m in pkgutil.iter_modules(partpat.__path__, "partpat."))


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_readme_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_package_exports_each_module_list():
    modules = [importlib.import_module(f"partpat.{m}")
               for m in ("containment", "core", "dacp", "enumeration", "formulas")]
    assert sorted(partpat.__all__) == sorted(name for m in modules for name in m.__all__)
    for m in modules:
        for name in m.__all__:
            assert getattr(partpat, name) is getattr(m, name), name


def _options(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions for option in action.option_strings}


def _named_flags(text: str) -> set[str]:
    """The flags in the inline code of ``text``."""
    spans = re.findall(r"`([^`]+)`", text)
    return {flag for span in spans for flag in re.findall(r"--[a-z][a-z-]*", span)}


def test_readme_flags_match_the_parser():
    # the flags in the README prose, outside the fenced examples, and in the
    # cli docstring, which is the text of ``partpat --help``
    named = _named_flags(re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S))
    (subcommands,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    known = set().union(*map(_options, subcommands.choices.values()))
    assert named - known == set()
    assert _named_flags(cli.__doc__) - known == set()
    scan = argparse.ArgumentParser()
    cli._add_scan_flags(scan)
    assert _options(scan) - {"-h", "--help"} - named == set()


DP_CAP = f"{enumeration._DP_MAX_STATES:,}"
FAMILY_CAP = f"{cli._FAMILY_MAX:,}"


@pytest.mark.parametrize(
    ("text", "figure"),
    [
        (README.read_text(encoding="utf-8"), DP_CAP),
        (README.read_text(encoding="utf-8"), FAMILY_CAP),
        (cli.__doc__, FAMILY_CAP),  # the text of ``partpat --help``
        (enumeration.count_sequence.__doc__, DP_CAP),
    ],
    ids=["README-dp", "README-family", "help-family", "count_sequence-dp"],
)
def test_cap_figures_follow_the_code(text, figure):
    assert figure in text


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as f:
        assert tomllib.load(f)["project"]["version"] == partpat.__version__
