"""Hybrid fuzzy dynamics on time scales.

Alpha-cut fuzzy arithmetic, Hukuhara delta derivatives, a hybrid-system
solver, scalar comparison dynamics, and a practical-stability checker.
"""

__version__ = "0.1.0"

from importlib import import_module as _import_module

from .errors import (
    BlowUpError,
    ConfigError,
    DimensionMismatchError,
    FuzzyTSError,
    GHDifferenceError,
    GridMismatchError,
    InvalidShapeError,
    NonRegressiveError,
    NoSuccessorError,
    StepFailureError,
    UnknownPointError,
    VerificationInconclusive,
)
from .fuzzy import (
    AlphaGrid,
    FuzzyNumber,
    FuzzyVector,
    add,
    crisp,
    dist,
    gh_difference,
    h_difference,
    hausdorff_interval,
    make_trapezoid,
    make_triangle,
    norm,
    scale,
    vector,
    zero,
    zero_vector,
)
from .timescale import (
    RegressiveFn,
    TimeScale,
    circle_minus,
    circle_plus,
    constant,
    explicit,
    integer,
    intervals,
    ominus,
    qscale,
    uniform,
)
from .hukuhara import FuzzyTrajectory, delta_h_derivative, verify_derivative_definition
from .hybrid import HybridFuzzySystem, StepMode, build_example_system, solve

# The comparison and stability layers load on first use (PEP 562), so a run
# that only integrates a system never compiles them.
_LAZY = {
    **dict.fromkeys(("ScalarHybridSystem", "ScalarTrajectory", "check_monotonicity_hypothesis",
                     "solve_comparison"), "comparison"),
    **dict.fromkeys(("ClassKPair", "LyapunovFn", "StabilityQuery", "Verdict",
                     "check_practical_stability", "norm_lyapunov", "verify_comparison_bound"),
                    "stability"),
}

__all__ = [name for name in globals() if not name.startswith("_") and name not in (
    "errors", "fuzzy", "timescale", "hukuhara", "hybrid")] + list(_LAZY)


def __getattr__(name: str):
    if name in ("comparison", "stability"):
        return _import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
