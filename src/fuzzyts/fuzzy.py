"""Alpha-cut fuzzy numbers, fuzzy vectors, and the sup-Hausdorff metrics.

A fuzzy number is stored as its family of alpha-level intervals sampled on
a shared grid of alpha values: ``[u]^a = [lower(a), upper(a)]``.  Every
operation here acts level-wise on those endpoints, which makes addition,
scalar multiplication, the generalized Hukuhara difference and the metrics
exact on the represented class.  Membership functions are never stored;
validity (nonempty, nested, finite cuts) is enforced at construction.

Fuzzy vectors are boxes: tuples of independent fuzzy numbers on one grid.
Their metric uses the max norm on the underlying space, so it decomposes
component-wise into the scalar metric.
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

# Absolute tolerance for all endpoint comparisons.  Magnitudes in intended
# use are O(1)-O(1e3), so this is far below arithmetic noise floor concerns.
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


def _require_same_grid(u: "FuzzyNumber", v: "FuzzyNumber") -> None:
    if not u.grid.matches(v.grid):
        raise GridMismatchError("operands live on different alpha grids")


@dataclass(frozen=True, eq=False)
class FuzzyNumber:
    """A fuzzy number as sampled alpha-cut endpoints on a shared grid.

    Invariants, checked at construction:
      * ``lower[i] <= upper[i]`` at every level (nonempty cuts),
      * ``lower`` nondecreasing and ``upper`` nonincreasing in alpha
        (cuts are nested), and
      * all endpoints finite.
    """

    grid: AlphaGrid
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        m = self.grid.m
        if lower.shape != (m,) or upper.shape != (m,):
            raise InvalidShapeError("endpoint arrays must match the grid size")
        # ndarray methods and slice differences (what np.diff computes) keep
        # these checks cheap enough to run on every kernel result.
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise InvalidShapeError("endpoints must be finite")
        if (lower > upper + ATOL).any():
            raise InvalidShapeError("lower endpoint exceeds upper endpoint")
        if (lower[1:] - lower[:-1] < -ATOL).any() or (upper[1:] - upper[:-1] > ATOL).any():
            raise InvalidShapeError("alpha cuts are not nested")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def cut(self, i: int) -> tuple[float, float]:
        """Endpoints of the cut at grid level ``i``."""
        return float(self.lower[i]), float(self.upper[i])

    @property
    def is_crisp(self) -> bool:
        return bool(np.all(np.abs(self.upper - self.lower) <= ATOL))

    def crisp_value(self) -> float:
        """The represented real when this number is crisp."""
        if not self.is_crisp:
            raise InvalidShapeError("fuzzy number is not crisp")
        return float(self.lower[-1])

    def to_records(self) -> list[tuple[float, float, float]]:
        """Per-level (alpha, lower, upper) records for serialization."""
        return [
            (float(a), float(lo), float(hi))
            for a, lo, hi in zip(self.grid.levels, self.lower, self.upper)
        ]

    def __add__(self, other: "FuzzyNumber") -> "FuzzyNumber":
        return add(self, other)

    def __mul__(self, k: float) -> "FuzzyNumber":
        return scale(float(k), self)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        lo, hi = self.cut(0)
        core_lo, core_hi = self.cut(self.grid.m - 1)
        return f"FuzzyNumber([{lo}, {hi}] .. core [{core_lo}, {core_hi}])"


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


def add(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber:
    """Level-wise interval sum (Minkowski sum of the cuts)."""
    _require_same_grid(u, v)
    return FuzzyNumber(u.grid, u.lower + v.lower, u.upper + v.upper)


def scale(k: float, u: FuzzyNumber) -> FuzzyNumber:
    """Level-wise scalar multiple; endpoints swap when k < 0."""
    if k >= 0:
        return FuzzyNumber(u.grid, k * u.lower, k * u.upper)
    return FuzzyNumber(u.grid, k * u.upper, k * u.lower)


def gh_difference(u: FuzzyNumber, v: FuzzyNumber) -> FuzzyNumber:
    """Generalized Hukuhara difference ``u (-)gH v``.

    Level-wise the only candidate is
    ``[min(lo_u - lo_v, hi_u - hi_v), max(lo_u - lo_v, hi_u - hi_v)]``.
    If that family of intervals is nested it is the unique answer and the
    round-trip ``u = v + w`` or ``v = u + (-1)*w`` holds level-wise;
    otherwise the difference does not exist and GHDifferenceError is
    raised.  No repair or projection is attempted.
    """
    _require_same_grid(u, v)
    dlo = u.lower - v.lower
    dhi = u.upper - v.upper
    lower = np.minimum(dlo, dhi)
    upper = np.maximum(dlo, dhi)
    if np.any(np.diff(lower) < -ATOL) or np.any(np.diff(upper) > ATOL):
        raise GHDifferenceError("gH difference does not exist: cuts are not nested")
    return FuzzyNumber(u.grid, lower, upper)


def hausdorff_interval(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Hausdorff distance between closed bounded intervals.

    For intervals this reduces to the larger endpoint discrepancy.
    """
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


def dist(u: FuzzyNumber, v: FuzzyNumber) -> float:
    """Sup over alpha of the Hausdorff distance between the cuts."""
    _require_same_grid(u, v)
    return float(
        np.max(np.maximum(np.abs(u.lower - v.lower), np.abs(u.upper - v.upper)))
    )


@dataclass(frozen=True, eq=False)
class FuzzyVector:
    """A box-valued fuzzy state: independent components on one grid."""

    components: tuple[FuzzyNumber, ...]

    def __post_init__(self):
        components = tuple(self.components)
        if not components:
            raise DimensionMismatchError("fuzzy vector needs at least one component")
        grid = components[0].grid
        for c in components[1:]:
            if not grid.matches(c.grid):
                raise GridMismatchError("vector components live on different grids")
        object.__setattr__(self, "components", components)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def grid(self) -> AlphaGrid:
        return self.components[0].grid

    def __getitem__(self, i: int) -> FuzzyNumber:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __add__(self, other: "FuzzyVector") -> "FuzzyVector":
        return vec_add(self, other)

    def __mul__(self, k: float) -> "FuzzyVector":
        return vec_scale(float(k), self)

    __rmul__ = __mul__

    @property
    def is_crisp(self) -> bool:
        return all(c.is_crisp for c in self.components)

    def to_records(self) -> list[list[tuple[float, float, float]]]:
        return [c.to_records() for c in self.components]

    def __repr__(self) -> str:
        return f"FuzzyVector(n={self.n})"


def vector(*components: FuzzyNumber) -> FuzzyVector:
    return FuzzyVector(tuple(components))


def zero_vector(grid: AlphaGrid, n: int = 1) -> FuzzyVector:
    return FuzzyVector(tuple(zero(grid) for _ in range(n)))


def _require_same_shape(u: FuzzyVector, v: FuzzyVector) -> None:
    if u.n != v.n:
        raise DimensionMismatchError(f"dimension mismatch: {u.n} vs {v.n}")


def vec_add(u: FuzzyVector, v: FuzzyVector) -> FuzzyVector:
    _require_same_shape(u, v)
    return FuzzyVector(tuple(add(a, b) for a, b in zip(u, v)))


def vec_scale(k: float, u: FuzzyVector) -> FuzzyVector:
    return FuzzyVector(tuple(scale(k, c) for c in u))


def vec_gh_difference(u: FuzzyVector, v: FuzzyVector) -> FuzzyVector:
    _require_same_shape(u, v)
    return FuzzyVector(tuple(gh_difference(a, b) for a, b in zip(u, v)))


def vec_dist(u: FuzzyVector, v: FuzzyVector) -> float:
    """Sup-Hausdorff metric on box fuzzy vectors under the max norm.

    Decomposes as the max over components of the scalar metric; equals
    dist() for one-component vectors.
    """
    _require_same_shape(u, v)
    return max(dist(a, b) for a, b in zip(u, v))


def norm(u: FuzzyVector) -> float:
    """Distance to the crisp zero vector.

    Computed from the endpoints as the max over components and levels of
    ``max(|lower|, |upper|)``, without building the zero vector; since
    ``x - 0.0 == x`` this equals ``vec_dist(u, zero_vector(u.grid, u.n))``
    exactly.  Behaves like a norm: zero exactly on the zero vector,
    absolutely homogeneous under scalar multiplication, subadditive under
    addition.
    """
    return max(float(np.maximum(np.abs(c.lower), np.abs(c.upper)).max()) for c in u)
