"""Exception types shared across the library, and the bases of its records."""


class Frozen:
    """Base of an immutable record: its ``__init__`` sets each slot once,
    with ``_set``; setting or deleting one later raises AttributeError."""

    __slots__ = ()

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__


class Record:
    """Base of a record whose ``__init__`` takes its ``_fields`` by name."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def replace(self, **changes):
        """A copy with ``changes`` to the fields, built and checked again by
        ``__init__``."""
        return type(self)(**{**{name: getattr(self, name) for name in self._fields}, **changes})


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
