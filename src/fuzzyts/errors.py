"""Exception types shared across the library."""


class FuzzyTSError(Exception):
    """Base class for every error raised by this package."""


class InvalidShapeError(FuzzyTSError):
    """Endpoint data does not describe a valid fuzzy number."""


class GridMismatchError(FuzzyTSError):
    """Operands live on different alpha grids."""


class DimensionMismatchError(FuzzyTSError):
    """Fuzzy vectors have different numbers of components."""


class GHDifferenceError(FuzzyTSError):
    """The generalized Hukuhara difference of the operands does not exist.

    The level-wise min/max candidate violates nestedness, so no fuzzy
    number satisfies either defining decomposition.
    """


class UnknownPointError(FuzzyTSError):
    """The requested instant is not a stored point of the time scale."""


class NoSuccessorError(FuzzyTSError):
    """The terminal point of a time scale has no forward jump."""


class NonRegressiveError(FuzzyTSError):
    """1 + mu(t) * p(t) vanishes at a sampled point."""


class StepFailureError(FuzzyTSError):
    """A solver step could not produce a valid fuzzy state."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"step failed at t={t}")


class BlowUpError(FuzzyTSError):
    """The scalar comparison dynamics produced a non-finite value."""

    def __init__(self, t: float, message: str = ""):
        self.t = t
        super().__init__(message or f"non-finite comparison state at t={t}")


class VerificationInconclusive(FuzzyTSError):
    """A derivative check needed a Hukuhara difference that does not exist."""


class ConfigError(FuzzyTSError):
    """A run configuration is malformed or inconsistent."""


class ParseError(FuzzyTSError):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{hint}")


class EvalError(FuzzyTSError):
    """Evaluation failure carrying the source span of the offending node."""

    def __init__(self, message: str, span: tuple[int, int] = (0, 0)):
        self.span = span
        super().__init__(f"{message} at line {span[0]}, column {span[1]}")
