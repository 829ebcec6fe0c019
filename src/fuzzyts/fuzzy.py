"""Alpha-cut fuzzy numbers, fuzzy vectors, and the sup-Hausdorff metrics.

A fuzzy number is stored as its family of alpha-level intervals sampled on
a shared grid of alpha values: ``[u]^a = [lower(a), upper(a)]``.  Every
operation here acts level-wise on those endpoints, which makes addition,
scalar multiplication, the generalized Hukuhara difference and the metrics
exact on the represented class.  Membership functions are never stored.
Validity (nonempty, nested, finite cuts) is checked in full where a state
comes in: outside data through the constructor, and the Hukuhara
differences.  One test decides: finite cuts pass when ``_tighten`` moves no
endpoint by more than ``ATOL`` (a trapezoid's rounded core may need it), and
are stored tightened.  Sums and scalar
multiples of fuzzy numbers are fuzzy numbers and rounding is monotone, so
on those exact states ``add`` and ``scale`` can only fail by overflow:
they test finiteness only.  Kernels wrap their fresh result arrays without
a copy.  A failed check on a stack raises the error a single state would;
only then are its ``rows`` worked out, the error each failing sample
raises on its own.

Fuzzy vectors are boxes of independent components on one grid, stored as
``(n, m)`` endpoint arrays (a number's are ``(m,)``); a stack of S vectors
is one ``(S, n, m)`` pair.  Each operation is written once and takes
numbers, vectors or stacks as they stand; a number meeting a vector acts on
every component, a vector meeting a stack on every sample.  Every operation
is elementwise on the endpoints, so each sample of a stack comes out exactly
as it would on its own.  The vector metric uses the max norm on the
underlying space, so it decomposes component-wise into the scalar metric;
on a stack it gives one value per sample.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DimensionMismatchError,
    Frozen,
    GHDifferenceError,
    GridMismatchError,
    InvalidShapeError,
)

# Absolute tolerance of the validity check: a state is accepted when tightening
# its cuts moves no endpoint by more than this (a trapezoid's core may need it).
ATOL = 1e-12


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


class AlphaGrid(Frozen):
    """Shared ladder of alpha values: strictly increasing, from 0 to 1."""

    __slots__ = ("levels",)

    def __init__(self, levels: np.ndarray):
        levels = _frozen_array(levels)
        if levels.ndim != 1 or levels.size < 2:
            raise InvalidShapeError("alpha grid needs at least two levels")
        if levels[0] != 0.0 or levels[-1] != 1.0:
            raise InvalidShapeError("alpha grid must start at 0 and end at 1")
        if not np.all(np.diff(levels) > 0):
            raise InvalidShapeError("alpha grid must be strictly increasing")
        self._set(levels=levels)

    @classmethod
    def uniform(cls, m: int = 11) -> "AlphaGrid":
        """Uniformly spaced grid with ``m`` levels (default 11)."""
        if m < 2:
            raise InvalidShapeError("alpha grid needs at least two levels")
        return cls(np.linspace(0.0, 1.0, m))

    @property
    def m(self) -> int:
        return int(self.levels.size)

    def matches(self, other: "AlphaGrid") -> bool:
        return self is other or np.array_equal(self.levels, other.levels)

    def __repr__(self) -> str:
        return f"AlphaGrid(m={self.m})"


# The tests of a state, in the constructor's order: each gives the samples of
# a stack that fail it, and the error it raises.
_FINITE = (lambda lo, up: ~(np.isfinite(lo).all((-2, -1)) & np.isfinite(up).all((-2, -1))),
           InvalidShapeError, "endpoints must be finite")
_ORDERED = (lambda lo, up: (lo > up + ATOL).any((-2, -1)),
            InvalidShapeError, "lower endpoint exceeds upper endpoint")
_NESTED = (lambda lo, up: _moved(lo, up, _tighten(lo, up)).any((-2, -1)),
           InvalidShapeError, "alpha cuts are not nested")
_GH_NESTED = (_NESTED[0], GHDifferenceError, "gH difference does not exist: cuts are not nested")
_CHECKS = (_FINITE, _ORDERED, _NESTED)


def _fail(test, lower: np.ndarray, upper: np.ndarray, tests=(_FINITE,)):
    """Raise the error of ``test``.  On a stack it carries ``rows``: each
    failing sample's own error, from the first of ``tests`` that it fails."""
    error = test[1](test[2])
    if lower.ndim == 3:
        error.rows = {}
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan: it passes
            for failing, cls, message in tests:
                for j in np.flatnonzero(failing(lower, upper)).tolist():
                    error.rows.setdefault(j, cls(message))
    raise error


def _require_finite(lower: np.ndarray, upper: np.ndarray, tests=(_FINITE,)) -> None:
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        _fail(_FINITE, lower, upper, tests)


def _check(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The finite, nonempty and nested checks (see ``_tightened``).  Callers
    ignore overflow: a move past the largest float is an infinity, rejected."""
    _require_finite(lower, upper, _CHECKS)
    tight = _tightened(lower, upper)
    if tight is None:
        _fail(_ORDERED if (lower > upper + ATOL).any() else _NESTED, lower, upper, _CHECKS)
    return tight


def _tightened(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """The cuts ordered and nested exactly: the arrays themselves if they are
    (a cheap test first), else ``_tighten``'s if within ``ATOL``, else None."""
    if not ((lower > upper).any() or (lower[..., 1:] < lower[..., :-1]).any()
            or (upper[..., 1:] > upper[..., :-1]).any()):
        return lower, upper
    tight = _tighten(lower, upper)
    return None if _moved(lower, upper, tight).any() else tight


def _tighten(lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cuts made ordered and nested exactly: each lower endpoint raised to
    the largest below it in alpha, each upper one lowered to the smallest,
    and the lower ones clamped to the upper end of the core."""
    upper = np.minimum.accumulate(upper, axis=-1)
    return np.minimum(np.maximum.accumulate(lower, axis=-1), upper[..., -1:]), upper


def _moved(lower: np.ndarray, upper: np.ndarray, tight: tuple) -> np.ndarray:
    """The one tolerance test: per endpoint, whether ``tight`` moves it by
    more than ``ATOL``.  A lower endpoint more than ATOL above its upper one
    fails it too, so ``_ORDERED`` only picks which message a failure gets."""
    return (np.abs(tight[0] - lower) > ATOL) | (np.abs(tight[1] - upper) > ATOL)


class _Cuts(Frozen):
    """Sampled alpha-cut endpoints on one grid, checked at construction.

    A fuzzy number holds ``(m,)`` endpoint arrays, a fuzzy vector ``(n, m)``
    ones, one row per component, and a stack of vectors ``(S, n, m)`` ones.
    Invariants, row by row, held exactly:
      * all endpoints finite,
      * ``lower <= upper`` at every level (nonempty cuts), and
      * ``lower`` nondecreasing and ``upper`` nonincreasing in alpha
        (cuts are nested).
    Endpoints that tightening to the last two moves by at most ``ATOL``
    are stored tightened (see ``_tightened``).  ``__init__`` leaves the
    checks to ``__post_init__``, the hook ``perfbench/tracer.py`` wraps to
    count the fuzzy numbers built from outside data.
    """

    __slots__ = ("grid", "lower", "upper")
    _ranks = (1,)  # allowed ranks of the endpoint arrays

    def __init__(self, grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray):
        self._set(grid=grid, lower=lower, upper=upper)
        self.__post_init__()

    def __post_init__(self):
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        if (lower.ndim not in self._ranks or lower.shape != upper.shape
                or lower.shape[-1] != self.grid.m):
            raise InvalidShapeError("endpoint arrays must match the grid size")
        with np.errstate(over="ignore"):  # see _check
            lower, upper = _check(lower, upper)
        lower.setflags(write=False)
        upper.setflags(write=False)
        self._set(lower=lower, upper=upper)

    @property
    def samples(self) -> int | None:
        """Number of samples in a stack; None for a single state."""
        return self.lower.shape[0] if self.lower.ndim == 3 else None

    @property
    def is_crisp(self) -> bool:
        return bool(np.all(np.abs(self.upper - self.lower) <= ATOL))

    def __add__(self, other):
        return add(self, other)


class FuzzyNumber(_Cuts):
    """A fuzzy number: ``(m,)`` endpoint arrays on a shared grid."""

    __slots__ = ()

    def cut(self, i: int) -> tuple[float, float]:
        """Endpoints of the cut at grid level ``i``."""
        return float(self.lower[i]), float(self.upper[i])

    def crisp_value(self) -> float:
        """The represented real when this number is crisp."""
        if not self.is_crisp:
            raise InvalidShapeError("fuzzy number is not crisp")
        return float(self.lower[-1])

    def to_records(self) -> list[tuple[float, float, float]]:
        """Per-level (alpha, lower, upper) records for serialization."""
        return list(zip(self.grid.levels.tolist(), self.lower.tolist(), self.upper.tolist()))

    def __repr__(self) -> str:
        lo, hi = self.cut(0)
        core_lo, core_hi = self.cut(self.grid.m - 1)
        return f"FuzzyNumber([{lo}, {hi}] .. core [{core_lo}, {core_hi}])"


class FuzzyVector(_Cuts):
    """A box-valued fuzzy state: ``(n, m)`` endpoint arrays, one row per
    independent component, all on one grid.

    Built from its components, ``FuzzyVector((u1, u2, ...))``, or from
    endpoint arrays with ``FuzzyVector.from_arrays``.  Indexing and
    iteration yield the components as fuzzy numbers.

    With a leading samples axis, ``(S, n, m)`` arrays, it is a stack of S
    states checked once as a whole.  A stack has no components to index;
    ``take`` gives one sample as a single state or a sub-stack, views of the
    checked arrays.
    """

    __slots__ = ()
    _ranks = (2, 3)

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise DimensionMismatchError("fuzzy vector needs at least one component")
        grid = components[0].grid
        for c in components[1:]:
            if not grid.matches(c.grid):
                raise GridMismatchError("vector components live on different grids")
        super().__init__(grid, [c.lower for c in components], [c.upper for c in components])

    @classmethod
    def from_arrays(cls, grid: AlphaGrid, lower, upper) -> "FuzzyVector":
        vec = cls.__new__(cls)
        _Cuts.__init__(vec, grid, lower, upper)
        return vec

    @property
    def n(self) -> int:
        return self.lower.shape[-2]

    def take(self, rows) -> "FuzzyVector":
        """The sample at one row as a single state, or the sub-stack of a
        sequence of rows, in that order."""
        return _state(self.grid, self.lower[rows], self.upper[rows])

    def __getitem__(self, i: int) -> FuzzyNumber:
        if self.samples is not None:
            raise InvalidShapeError("a stack of states has no components; take one sample first")
        return FuzzyNumber(self.grid, self.lower[i], self.upper[i])

    def __iter__(self):
        return (self[i] for i in range(self.n))

    def to_records(self) -> list[list[tuple[float, float, float]]]:
        return [c.to_records() for c in self]

    def __repr__(self) -> str:
        if self.samples is not None:
            return f"FuzzyVector(samples={self.samples}, n={self.n})"
        return f"FuzzyVector(n={self.n})"


def _state(grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray) -> FuzzyNumber | FuzzyVector:
    """The number or vector on endpoint arrays that passed the checks
    (pieces of checked ones, or a kernel's fresh result), set read-only and
    wrapped without a copy.  Their shape needs no check: it comes from
    checked, compatible operands."""
    lower.setflags(write=False)
    upper.setflags(write=False)
    cls = FuzzyNumber if lower.ndim == 1 else FuzzyVector
    obj = cls.__new__(cls)
    object.__setattr__(obj, "grid", grid)
    object.__setattr__(obj, "lower", lower)
    object.__setattr__(obj, "upper", upper)
    return obj


def _require_compatible(u: _Cuts, v: _Cuts) -> None:
    """One grid, one dimension when both are vectors and one sample count
    when both are stacks (a number meets every component, a vector every
    sample)."""
    if min(u.lower.ndim, v.lower.ndim) >= 2 and u.n != v.n:
        raise DimensionMismatchError(f"dimension mismatch: {u.n} vs {v.n}")
    if u.lower.ndim == v.lower.ndim == 3 and u.samples != v.samples:
        raise DimensionMismatchError(f"sample count mismatch: {u.samples} vs {v.samples}")
    if not u.grid.matches(v.grid):
        raise GridMismatchError("operands live on different alpha grids")


def make_trapezoid(a: float, b: float, c: float, d: float, grid: AlphaGrid) -> FuzzyNumber:
    """Trapezoidal fuzzy number with support [a, d] and core [b, c].

    Cuts interpolate linearly: ``[a + alpha*(b-a), d - alpha*(d-c)]``.
    Triangular when b == c, crisp when a == b == c == d.
    """
    if not (a <= b <= c <= d):
        raise InvalidShapeError(f"trapezoid nodes must be ordered: {a}, {b}, {c}, {d}")
    alphas = grid.levels
    return FuzzyNumber(grid, a + alphas * (b - a), d - alphas * (d - c))


def make_triangle(a: float, b: float, c: float, grid: AlphaGrid) -> FuzzyNumber:
    """Triangular fuzzy number with support [a, c] and peak b."""
    return make_trapezoid(a, b, b, c, grid)


def crisp(x: float, grid: AlphaGrid) -> FuzzyNumber:
    """The crisp number x: every cut is the singleton [x, x]."""
    return make_trapezoid(x, x, x, x, grid)


def zero(grid: AlphaGrid) -> FuzzyNumber:
    """The crisp zero."""
    return crisp(0.0, grid)


def add(u: _Cuts, v: _Cuts) -> _Cuts:
    """Level-wise interval sum (Minkowski sum of the cuts)."""
    _require_compatible(u, v)
    with np.errstate(over="ignore"):  # the finiteness test reports an overflow
        lower, upper = u.lower + v.lower, u.upper + v.upper
    _require_finite(lower, upper)
    return _state(u.grid, lower, upper)


def scale(k: float, u: _Cuts) -> _Cuts:
    """Level-wise scalar multiple; endpoints swap when k < 0."""
    lower, upper = (u.lower, u.upper) if k >= 0 else (u.upper, u.lower)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test reports them
        lower, upper = k * lower, k * upper
    _require_finite(lower, upper)
    return _state(u.grid, lower, upper)


def h_difference(u: _Cuts, v: _Cuts) -> _Cuts:
    """Classical Hukuhara difference: the w with ``u = v + w``.

    Endpoints subtract level-wise; when the result is not a valid state the
    difference does not exist and construction raises InvalidShapeError.
    """
    _require_compatible(u, v)
    with np.errstate(over="ignore"):  # _check reports an overflow
        return _state(u.grid, *_check(u.lower - v.lower, u.upper - v.upper))


def gh_difference(u: _Cuts, v: _Cuts) -> _Cuts:
    """Generalized Hukuhara difference ``u (-)gH v``.

    Level-wise the only candidate is
    ``[min(lo_u - lo_v, hi_u - hi_v), max(lo_u - lo_v, hi_u - hi_v)]``.
    If that family of intervals is nested it is the unique answer and the
    round-trip ``u = v + w`` or ``v = u + (-1)*w`` holds level-wise;
    otherwise the difference does not exist and GHDifferenceError is
    raised.  No repair or projection is attempted.
    """
    _require_compatible(u, v)
    with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test reports them
        lower, upper = u.lower - v.lower, u.upper - v.upper
        lower, upper = np.minimum(lower, upper), np.maximum(lower, upper)
        tight = _tightened(lower, upper)
    if tight is None:
        _fail(_GH_NESTED, lower, upper, (_GH_NESTED, _FINITE))
    _require_finite(lower, upper)
    return _state(u.grid, *tight)


def hausdorff_interval(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Hausdorff distance between compact intervals.

    For intervals this reduces to the larger endpoint discrepancy.
    """
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _sup(gaps: np.ndarray) -> float | np.ndarray:
    """Max over levels and components; one value per sample of a stack."""
    if gaps.ndim < 3:
        return float(gaps.max())
    return gaps.max(axis=(-2, -1))


def dist(u: _Cuts, v: _Cuts) -> float | np.ndarray:
    """Sup over alpha of the Hausdorff distance between the cuts.

    On vectors this is the max over components (the max norm on the
    underlying space); on a stack, an ``(S,)`` array of per-sample values.
    """
    _require_compatible(u, v)
    return _sup(np.maximum(np.abs(u.lower - v.lower), np.abs(u.upper - v.upper)))


def norm(u: _Cuts) -> float | np.ndarray:
    """Distance to the crisp zero (per sample for a stack).

    Computed from the endpoints as the max over components and levels of
    ``max(|lower|, |upper|)``, without building the zero; since
    ``x - 0.0 == x`` this equals ``dist(u, zero_vector(u.grid, u.n))``
    exactly.  Behaves like a norm: zero exactly on the zero vector,
    absolutely homogeneous under scalar multiplication, subadditive under
    addition.
    """
    return _sup(np.maximum(np.abs(u.lower), np.abs(u.upper)))


def vector(*components: FuzzyNumber) -> FuzzyVector:
    return FuzzyVector(components)


def zero_vector(grid: AlphaGrid, n: int = 1) -> FuzzyVector:
    zeros = np.zeros((n, grid.m))
    return FuzzyVector.from_arrays(grid, zeros, zeros)
