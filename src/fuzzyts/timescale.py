"""Sampled time scales: jump operators, delta derivatives, regressive algebra.

A time scale is stored as a finite strictly increasing list of points.  The
forward jump of a stored point is the next stored point, and the graininess
is their spacing.  Points whose spacing is at or below ``dense_threshold``
are classified right-dense; derivative limits at such points are
approximated by quotients at the sampled spacing, so the spacing is the
error scale of anything computed there.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from .errors import (
    Frozen,
    InvalidShapeError,
    NonRegressiveError,
    NoSuccessorError,
    UnknownPointError,
)

_LOOKUP_ATOL = 1e-9

# Forward quotients sampled beyond sigma(t) by the upper Dini estimate at
# right-dense points.
DINI_SAMPLES = 8


class TimeScale(Frozen):
    """Ordered finite sample of a time scale; ``graininess`` holds mu at
    every non-terminal point."""

    __slots__ = ("points", "dense_threshold", "kind", "_index", "graininess")

    def __init__(self, points: np.ndarray, dense_threshold: float = 1e-6,
                 kind: str = "explicit"):
        points = np.array(points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise InvalidShapeError("time scale needs at least two points")
        if not np.all(np.isfinite(points)):
            raise InvalidShapeError("time scale points must be finite")
        if not np.all(np.diff(points) > 0):
            raise InvalidShapeError("time scale points must be strictly increasing")
        if dense_threshold <= 0:
            raise InvalidShapeError("dense_threshold must be positive")
        points.setflags(write=False)
        graininess = np.diff(points)
        graininess.setflags(write=False)
        self._set(points=points, dense_threshold=dense_threshold, kind=kind,
                  _index={float(t): i for i, t in enumerate(points)}, graininess=graininess)

    def __len__(self) -> int:
        return int(self.points.size)

    def index_of(self, t: float | np.ndarray, successor: bool = False) -> int | np.ndarray:
        """Index of a stored point, tolerating representation noise; an array
        of indices for an array of points.  The first point that is not stored,
        or with ``successor`` the first terminal point, raises as it would alone."""
        array = isinstance(t, np.ndarray) and t.ndim > 0
        if not array:
            i = self._index.get(float(t))
            if i is not None and not (successor and i == len(self) - 1):
                return i
        x = np.asarray(t, dtype=float)
        j = np.searchsorted(self.points, x)
        near = np.minimum(np.stack((np.maximum(j - 1, 0), j)), len(self) - 1)
        gap = np.abs(self.points[near] - x)
        ok = gap <= _LOOKUP_ATOL * np.maximum(1.0, np.abs(x))
        i = np.where(ok[0] & (gap[1] != 0), near[0], near[1])  # an exact match wins
        unknown = np.ravel(~(ok[0] | ok[1]))
        failed = np.flatnonzero(unknown | np.ravel(successor & (i == len(self) - 1)))
        if failed.size:
            at = float(x.flat[failed[0]]) if array else t
            if unknown[failed[0]]:
                raise UnknownPointError(f"t={at} is not a point of this time scale")
            raise NoSuccessorError(f"t={at} is the terminal point")
        return i if array else int(i)

    def __contains__(self, t: float) -> bool:
        try:
            self.index_of(t)
            return True
        except UnknownPointError:
            return False

    def sigma(self, t: float | np.ndarray) -> float | np.ndarray:
        """Forward jump: the next stored point (per point of an array)."""
        i = self.index_of(t, successor=True)
        return self.points[i + 1] if isinstance(i, np.ndarray) else float(self.points[i + 1])

    def mu(self, t: float | np.ndarray) -> float | np.ndarray:
        """Graininess sigma(t) - t (per point of an array)."""
        i = self.index_of(t, successor=True)
        return self.graininess[i] if isinstance(i, np.ndarray) else float(self.graininess[i])

    def is_right_dense(self, t: float) -> bool:
        return self.mu(t) <= self.dense_threshold

    def kappa_points(self) -> np.ndarray:
        """All points except the terminal one."""
        return self.points[:-1]

    def delta_derivative(self, f: Callable[[float], float], t: float) -> float:
        """Forward difference quotient [f(sigma(t)) - f(t)] / mu(t).

        Exact at right-scattered points; at right-dense points the sampled
        spacing stands in for the limit.
        """
        i = self.index_of(t, successor=True)
        t0 = float(self.points[i])
        t1 = float(self.points[i + 1])
        return (f(t1) - f(t0)) / (t1 - t0)

    def upper_dini(self, f: Callable[[float], float | np.ndarray], t: float,
                   horizon: float | None = None) -> float | np.ndarray:
        """Upper Dini derivative estimate of f at a stored point.

        ``f`` need only be defined up to the stored point ``horizon`` (the
        terminal point by default).  At right-scattered points (continuity
        assumed) this coincides with delta_derivative.  At right-dense points
        it is the sup of the quotients [f(sigma(t)) - f(s)] / (sigma(t) - s)
        over the next ``DINI_SAMPLES`` stored s beyond sigma(t), up to the
        horizon.  An ``f`` that returns arrays gets the estimate per element.
        """
        i = self.index_of(t)
        last = len(self) - 1 if horizon is None else self.index_of(horizon)
        if i >= last:
            raise NoSuccessorError(f"t={t} has no successor at or before the horizon")
        if self.graininess[i] > self.dense_threshold:
            return self.delta_derivative(f, t)
        st = float(self.points[i + 1])
        fst = f(st)
        best = None
        for s in self.points[i + 2:min(i + 2 + DINI_SAMPLES, last + 1)].tolist():
            q = (fst - f(s)) / (st - s)
            # as max(): a later quotient wins only where it is larger
            best = q if best is None else np.where(q > best, q, best)[()]
        return self.delta_derivative(f, t) if best is None else best


class SwitchSchedule(Frozen):
    """Switching instants on a time scale and the segment of every stored point.

    ``times`` must be strictly increasing stored points starting at the
    first point of the scale.  Segment k holds from ``times[k]`` up to the
    next switch, and a switch point belongs to the segment it opens.
    ``segments`` holds the segment index of every stored point.
    """

    __slots__ = ("ts", "times", "segments")

    def __init__(self, ts: TimeScale, times: tuple[float, ...]):
        times = tuple(float(t) for t in times)
        if not times:
            raise InvalidShapeError("at least one switch time (the start) is required")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise InvalidShapeError("switch times must be strictly increasing")
        for t in times:
            ts.index_of(t)  # raises UnknownPointError if absent
        if times[0] != float(ts.points[0]):
            raise InvalidShapeError("the first switch time must be the initial point")
        segments = np.searchsorted(np.asarray(times), ts.points, side="right") - 1
        segments.setflags(write=False)
        self._set(ts=ts, times=times, segments=segments)

    def march(self, x0: Any, horizon: float | None,
              freeze: Callable[[int, Any], Any],
              advance: Callable[[float, float, Any, Any], Any]) -> tuple[list, np.ndarray]:
        """Forward Euler march from the first point to the horizon.

        On entry to segment k the held value is ``freeze(k, x)``, computed
        once from the state at the segment's first point.  Each step maps
        the state at t to ``advance(t, mu(t), x, held)``, which returns the
        next state and the value held from then on (the same one unless the
        step dropped samples from a stacked state).  Returns the states and
        their segment indices, one per point up to the horizon (the last
        point by default).
        """
        ts = self.ts
        last = len(ts) - 1 if horizon is None else ts.index_of(horizon)
        values = [x0]
        seg = -1
        held = None
        steps = zip(self.segments[:last].tolist(), ts.points[:last].tolist(),
                    ts.graininess[:last].tolist())
        for k, t, mu in steps:
            if k != seg:
                seg = k
                held = freeze(k, values[-1])
            x, held = advance(t, mu, values[-1], held)
            values.append(x)
        return values, self.segments[: last + 1]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def integer(n: int, dense_threshold: float = 1e-6) -> TimeScale:
    """The initial segment 0, 1, ..., n of the nonnegative integers."""
    if n < 1:
        raise InvalidShapeError("integer scale needs n >= 1")
    return TimeScale(np.arange(n + 1, dtype=float), dense_threshold, kind=f"integer({n})")

def uniform(t0: float, h: float, n: int, dense_threshold: float = 1e-6) -> TimeScale:
    """n+1 equally spaced points t0, t0+h, ..., t0+n*h."""
    if h <= 0 or n < 1:
        raise InvalidShapeError("uniform scale needs h > 0 and n >= 1")
    return TimeScale(t0 + h * np.arange(n + 1), dense_threshold, kind=f"uniform({t0},{h},{n})")

def qscale(t0: float, q: float, n: int, dense_threshold: float = 1e-6) -> TimeScale:
    """Geometric points t0*q^0, ..., t0*q^n."""
    if t0 <= 0 or q <= 1 or n < 1:
        raise InvalidShapeError("q-scale needs t0 > 0, q > 1, n >= 1")
    return TimeScale(t0 * q ** np.arange(n + 1, dtype=float), dense_threshold,
                     kind=f"qscale({t0},{q},{n})")

def intervals(spans: list, resolution: float, dense_threshold: float = 1e-6) -> TimeScale:
    """Union of intervals [a, b], each sampled at roughly the resolution."""
    if resolution <= 0:
        raise InvalidShapeError("resolution must be positive")
    pieces = []
    prev_end = None
    for a, b in spans:
        if b <= a:
            raise InvalidShapeError(f"interval [{a}, {b}] is empty")
        if prev_end is not None and a <= prev_end:
            raise InvalidShapeError("intervals must be disjoint and increasing")
        steps = max(1, round((b - a) / resolution))
        pieces.append(np.linspace(a, b, steps + 1))
        prev_end = b
    return TimeScale(np.concatenate(pieces), dense_threshold,
                     kind=f"intervals({spans},{resolution})")

def explicit(points, dense_threshold: float = 1e-6) -> TimeScale:
    return TimeScale(np.asarray(points, dtype=float), dense_threshold, kind="explicit")


# ---------------------------------------------------------------------------
# Regressive functions and the circle algebra
# ---------------------------------------------------------------------------

_REG_ATOL = 1e-12


class RegressiveFn(Frozen):
    """A real function on a time scale with 1 + mu(t)*p(t) != 0 everywhere.

    Regressivity is validated at every sampled non-terminal point when the
    object is built, and re-validated for every result of the circle
    operations below.
    """

    __slots__ = ("ts", "fn", "name")

    def __init__(self, ts: TimeScale, fn: Callable[[float], float], name: str = "p"):
        for t in ts.kappa_points():
            t = float(t)
            if abs(1.0 + ts.mu(t) * fn(t)) <= _REG_ATOL:
                raise NonRegressiveError(f"1 + mu*{name} vanishes at t={t}")
        self._set(ts=ts, fn=fn, name=name)

    def __call__(self, t: float) -> float:
        return float(self.fn(t))


def constant(ts: TimeScale, c: float) -> RegressiveFn:
    return RegressiveFn(ts, lambda t: c, name=str(c))


def circle_plus(p: RegressiveFn, q: RegressiveFn) -> RegressiveFn:
    """p (+)r q = p + q + mu*p*q."""
    ts = p.ts
    return RegressiveFn(ts, lambda t: p(t) + q(t) + ts.mu(t) * p(t) * q(t),
                        name=f"({p.name}(+)r{q.name})")


def circle_minus(p: RegressiveFn, q: RegressiveFn) -> RegressiveFn:
    """p (-)r q = (p - q) / (1 + mu*q)."""
    ts = p.ts
    return RegressiveFn(ts, lambda t: (p(t) - q(t)) / (1.0 + ts.mu(t) * q(t)),
                        name=f"({p.name}(-)r{q.name})")


def ominus(p: RegressiveFn) -> RegressiveFn:
    """(-)r p = 0 (-)r p = -p / (1 + mu*p)."""
    return circle_minus(constant(p.ts, 0.0), p)
