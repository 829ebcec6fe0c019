"""Hybrid fuzzy dynamics on time scales.

Alpha-cut fuzzy arithmetic, Hukuhara delta derivatives, a hybrid-system
solver, scalar comparison dynamics, and a practical-stability checker.
"""

__version__ = "0.1.0"

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
from .comparison import (
    ScalarHybridSystem,
    ScalarTrajectory,
    check_monotonicity_hypothesis,
    solve_comparison,
)
from .stability import (
    ClassKPair,
    LyapunovFn,
    SamplingPlan,
    StabilityQuery,
    Verdict,
    check_practical_stability,
    dini_along_solution,
    norm_lyapunov,
    verify_comparison_bound,
)
