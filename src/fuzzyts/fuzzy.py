"""Alpha-cut fuzzy numbers, fuzzy vectors, and the sup-Hausdorff metrics.

A fuzzy number is stored as its family of alpha-level intervals sampled on
a shared grid of alpha values: ``[u]^a = [lower(a), upper(a)]``.  Every
operation here acts level-wise on those endpoints, which makes addition,
scalar multiplication, the generalized Hukuhara difference and the metrics
exact on the represented class.  Membership functions are never stored.
Validity (nonempty, nested, finite cuts) is checked by one routine on
every state made, outside data and kernel results alike; kernels wrap
their fresh result arrays without a copy.  The routine also tells whether
the cuts are ordered and nested exactly, with no slack within ``ATOL``
(a trapezoid's rounded core may carry some), and each state keeps that as
its private ``_exact``.  Fuzzy numbers are closed under ``add`` and
``scale`` and rounding is monotone, so on exact operands those two can
only fail by overflow: they test finiteness only, and their result is
exact.  On operands with slack, which they may enlarge past ``ATOL``, and
in the Hukuhara differences, the result gets the full check.

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

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    GHDifferenceError,
    GridMismatchError,
    InvalidShapeError,
)

# Absolute tolerance of the ordering and nesting checks: the slack a state
# may carry, such as the rounding of a trapezoid's core.  It does not scale
# with the endpoints, so slack that a run carries at a fixed relative size
# passes it once the state is large enough (example_3_9 reaches 2.6e6).
ATOL = 1e-12


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AlphaGrid:
    """Shared ladder of alpha values: strictly increasing, from 0 to 1."""

    levels: np.ndarray

    def __post_init__(self):
        levels = _frozen_array(self.levels)
        if levels.ndim != 1 or levels.size < 2:
            raise InvalidShapeError("alpha grid needs at least two levels")
        if levels[0] != 0.0 or levels[-1] != 1.0:
            raise InvalidShapeError("alpha grid must start at 0 and end at 1")
        if not np.all(np.diff(levels) > 0):
            raise InvalidShapeError("alpha grid must be strictly increasing")
        object.__setattr__(self, "levels", levels)

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


def _require_finite(lower: np.ndarray, upper: np.ndarray) -> None:
    if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
        raise InvalidShapeError("endpoints must be finite")


def _check(lower: np.ndarray, upper: np.ndarray) -> bool:
    """The finite, nonempty and nested checks on endpoint arrays; True when
    the cuts are ordered and nested exactly, False when they pass only
    within ``ATOL``.  Ndarray methods and slice differences (what np.diff
    computes) keep them cheap enough to run on every kernel result.  Every
    caller runs it with overflow ignored: a nesting difference of two
    finite endpoints may pass the largest float, and as an infinity it
    compares the same way."""
    _require_finite(lower, upper)
    dlo = lower[..., 1:] - lower[..., :-1]
    dup = upper[..., 1:] - upper[..., :-1]
    if not ((lower > upper).any() or (dlo < 0).any() or (dup > 0).any()):
        return True
    nested = not ((dlo < -ATOL).any() or (dup > ATOL).any())
    del dlo, dup  # a raised error's traceback, kept by a failed solve, holds this frame
    if (lower > upper + ATOL).any():
        raise InvalidShapeError("lower endpoint exceeds upper endpoint")
    if not nested:
        raise InvalidShapeError("alpha cuts are not nested")
    return False


@dataclass(frozen=True, eq=False)
class _Cuts:
    """Sampled alpha-cut endpoints on one grid, checked at construction.

    A fuzzy number holds ``(m,)`` endpoint arrays, a fuzzy vector ``(n, m)``
    ones, one row per component, and a stack of vectors ``(S, n, m)`` ones.
    Invariants, row by row:
      * all endpoints finite,
      * ``lower <= upper`` at every level (nonempty cuts), and
      * ``lower`` nondecreasing and ``upper`` nonincreasing in alpha
        (cuts are nested).
    ``_exact`` (not a field) tells whether they hold with no slack within
    ``ATOL``.
    """

    grid: AlphaGrid
    lower: np.ndarray
    upper: np.ndarray

    _ranks = (1,)  # allowed ranks of the endpoint arrays; not a field

    def __post_init__(self):
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        if (lower.ndim not in self._ranks or lower.shape != upper.shape
                or lower.shape[-1] != self.grid.m):
            raise InvalidShapeError("endpoint arrays must match the grid size")
        with np.errstate(over="ignore"):  # see _check
            exact = _check(lower, upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_exact", exact)

    @classmethod
    def _view(cls, grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray,
              exact: bool = False):
        """A state on endpoint arrays that passed the checks (pieces of
        checked ones, or a checked kernel result), set read-only; ``exact``
        when they passed with no slack."""
        lower.setflags(write=False)
        upper.setflags(write=False)
        obj = cls.__new__(cls)
        object.__setattr__(obj, "grid", grid)
        object.__setattr__(obj, "lower", lower)
        object.__setattr__(obj, "upper", upper)
        object.__setattr__(obj, "_exact", exact)
        return obj

    @property
    def samples(self) -> int | None:
        """Number of samples in a stack; None for a single state."""
        return self.lower.shape[0] if self.lower.ndim == 3 else None

    @property
    def is_crisp(self) -> bool:
        return bool(np.all(np.abs(self.upper - self.lower) <= ATOL))

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, k: float):
        return scale(float(k), self)

    __rmul__ = __mul__


class FuzzyNumber(_Cuts):
    """A fuzzy number: ``(m,)`` endpoint arrays on a shared grid."""

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
    ``unstack`` gives its samples as single states and ``take`` one sample
    or a sub-stack, all views of the checked arrays.
    """

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

    @classmethod
    def stack(cls, states) -> "FuzzyVector":
        """One ``(S, n, m)`` stack of single states that share grid and shape."""
        states = tuple(states)
        first = states[0]
        for s in states:
            if s.lower.ndim != 2 or s.lower.shape != first.lower.shape:
                raise DimensionMismatchError("only single states of one shape stack")
            if not first.grid.matches(s.grid):
                raise GridMismatchError("stacked states live on different grids")
        return cls._view(first.grid, _frozen_array([s.lower for s in states]),
                         _frozen_array([s.upper for s in states]),
                         all(s._exact for s in states))

    @property
    def n(self) -> int:
        return self.lower.shape[-2]

    def take(self, rows) -> "FuzzyVector":
        """The sample at one row as a single state, or the sub-stack of a
        sequence of rows, in that order."""
        return self._view(self.grid, self.lower[rows], self.upper[rows], self._exact)

    def unstack(self) -> list["FuzzyVector"]:
        """The samples of a stack as single states."""
        return [self.take(j) for j in range(self.samples)]

    def __getitem__(self, i: int) -> FuzzyNumber:
        if self.samples is not None:
            raise InvalidShapeError("a stack of states has no components; unstack it first")
        return FuzzyNumber(self.grid, self.lower[i], self.upper[i])

    def __iter__(self):
        return (self[i] for i in range(self.n))

    def to_records(self) -> list[list[tuple[float, float, float]]]:
        return [c.to_records() for c in self]

    def __repr__(self) -> str:
        if self.samples is not None:
            return f"FuzzyVector(samples={self.samples}, n={self.n})"
        return f"FuzzyVector(n={self.n})"


def _cuts(grid: AlphaGrid, lower: np.ndarray, upper: np.ndarray,
          closed: bool = False) -> FuzzyNumber | FuzzyVector:
    """The number or vector that a kernel's fresh endpoint arrays make,
    checked and wrapped without a copy.  Their shape needs no check: it
    comes from checked, compatible operands.  ``closed`` arrays are an
    ``add`` or ``scale`` of exact operands, ordered and nested exactly by
    construction, so only their finiteness is tested."""
    if closed:
        _require_finite(lower, upper)
    exact = closed or _check(lower, upper)
    return (FuzzyNumber if lower.ndim == 1 else FuzzyVector)._view(grid, lower, upper, exact)


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
    with np.errstate(over="ignore"):  # _cuts reports an overflow
        return _cuts(u.grid, u.lower + v.lower, u.upper + v.upper, u._exact and v._exact)


def scale(k: float, u: _Cuts) -> _Cuts:
    """Level-wise scalar multiple; endpoints swap when k < 0."""
    lower, upper = (u.lower, u.upper) if k >= 0 else (u.upper, u.lower)
    with np.errstate(over="ignore", invalid="ignore"):  # _cuts reports inf and nan
        return _cuts(u.grid, k * lower, k * upper, u._exact)


def h_difference(u: _Cuts, v: _Cuts) -> _Cuts:
    """Classical Hukuhara difference: the w with ``u = v + w``.

    Endpoints subtract level-wise; when the result is not a valid state the
    difference does not exist and construction raises InvalidShapeError.
    """
    _require_compatible(u, v)
    with np.errstate(over="ignore"):  # _check reports an overflow
        return _cuts(u.grid, u.lower - v.lower, u.upper - v.upper)


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
        dlo, dhi = u.lower - v.lower, u.upper - v.upper
        lower, upper = np.minimum(dlo, dhi), np.maximum(dlo, dhi)
        # the level differences, taken once for the nesting and exactness tests
        down, up = lower[..., 1:] - lower[..., :-1], upper[..., 1:] - upper[..., :-1]
    nested = not ((down < -ATOL).any() or (up > ATOL).any())
    exact = not ((down < 0).any() or (up > 0).any())
    del dlo, dhi, down, up  # a raised error's traceback, kept by a failed solve, holds this frame
    if not nested:
        raise GHDifferenceError("gH difference does not exist: cuts are not nested")
    # lower <= upper by construction, so of _check only the finiteness test is left
    _require_finite(lower, upper)
    return (FuzzyNumber if lower.ndim == 1 else FuzzyVector)._view(u.grid, lower, upper, exact)


def hausdorff_interval(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Hausdorff distance between closed bounded intervals.

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
