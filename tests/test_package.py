"""Checks on the package's source files as a whole."""

import ast
import importlib
import os
import re
import subprocess
import sys
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


# Every name the package re-exports, by the module that defines it.
PUBLIC = {
    "errors": ("BlowUpError", "ConfigError", "DimensionMismatchError", "FuzzyTSError",
               "GHDifferenceError", "GridMismatchError", "InvalidShapeError",
               "NonRegressiveError", "NoSuccessorError", "StepFailureError", "UnknownPointError",
               "VerificationInconclusive"),
    "fuzzy": ("AlphaGrid", "FuzzyNumber", "FuzzyVector", "add", "crisp", "dist", "gh_difference",
              "h_difference", "hausdorff_interval", "make_trapezoid", "make_triangle", "norm",
              "scale", "vector", "zero", "zero_vector"),
    "timescale": ("RegressiveFn", "TimeScale", "circle_minus", "circle_plus", "constant",
                  "explicit", "integer", "intervals", "ominus", "qscale", "uniform"),
    "hukuhara": ("FuzzyTrajectory", "delta_h_derivative", "verify_derivative_definition"),
    "hybrid": ("HybridFuzzySystem", "StepMode", "build_example_system", "solve"),
    "comparison": ("ScalarHybridSystem", "ScalarTrajectory", "check_monotonicity_hypothesis",
                   "solve_comparison"),
    "stability": ("ClassKPair", "LyapunovFn", "StabilityQuery", "Verdict",
                  "check_practical_stability", "norm_lyapunov", "verify_comparison_bound"),
}


@pytest.mark.parametrize("module", PUBLIC)
def test_every_public_name_is_its_modules_own_object(module):
    owner = importlib.import_module(f"fuzzyts.{module}")
    namespace = {}
    exec("from fuzzyts import *", namespace)
    for name in PUBLIC[module]:
        assert getattr(fuzzyts, name) is getattr(owner, name)
        assert name in dir(fuzzyts) and name in fuzzyts.__all__
        assert namespace[name] is getattr(owner, name)


def test_the_package_exports_nothing_else():
    assert sorted(fuzzyts.__all__) == sorted(name for names in PUBLIC.values() for name in names)
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        fuzzyts.nope  # noqa: B018


def test_the_analysis_layers_load_on_first_use():
    script = ("import sys, fuzzyts\n"
              "layers = ('fuzzyts.comparison', 'fuzzyts.stability')\n"
              "print([m in sys.modules for m in layers])\n"
              "fuzzyts.Verdict\n"
              "print([m in sys.modules for m in layers], fuzzyts.comparison.__name__)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fuzzyts.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout == "[False, False]\n[True, True] fuzzyts.comparison\n"
