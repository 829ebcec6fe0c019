"""Checks on the package's source files as a whole."""

import ast
import re
from pathlib import Path

import pytest

import fuzzyts

SOURCES = sorted(Path(fuzzyts.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "fuzzy.py", "stability.py", "cli.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_uses_dataclasses(path):
    # a record is a plain class with __slots__: dataclasses would be imported,
    # and its generated code run, by every command
    assert not re.search(r"@dataclass|^\s*(import|from) dataclasses\b", path.read_text(), re.M)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_parses_as_the_oldest_supported_python(path):
    # pyproject.toml declares requires-python >= 3.10
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
