"""Scalar comparison hybrid systems and their Euler solution.

The scalar system mirrors the fuzzy one: a real state driven by
``g(t, r, v)`` where v is frozen at each switching instant as
``psi_k(r(t_k))``.  On isolated scales the forward Euler recursion is the
unique (hence maximal) solution; on densely sampled segments it only
approximates the maximal solution and reports itself as approximate.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import BlowUpError, InvalidShapeError, Record
from .timescale import SwitchSchedule, TimeScale

# g and psi may be given ``(S,)`` arrays, one value per sample (g also an
# ``(S,)`` t), and must then act element by element, as any composition of
# numpy arithmetic and the time scale's mu/sigma does.  A result that is the
# same for every sample may be a single float.
GFn = Callable[[float | np.ndarray, float | np.ndarray, float | np.ndarray], float | np.ndarray]
PsiFn = Callable[[float | np.ndarray], float | np.ndarray]


class ScalarHybridSystem(Record):
    """Real comparison dynamics with per-segment frozen psi values; ``r0``
    may be an ``(S,)`` array of starts."""

    _fields = ("ts", "switch_times", "g", "psi", "r0")
    __slots__ = _fields + ("schedule",)

    def __init__(self, ts: TimeScale, switch_times: tuple[float, ...], g: GFn,
                 psi: tuple[PsiFn, ...], r0: float | np.ndarray):
        self.schedule = SwitchSchedule(ts, switch_times)
        if len(psi) != len(self.schedule.times):
            raise InvalidShapeError("need exactly one psi per switch time")
        if np.any(np.asarray(r0) < 0):
            raise InvalidShapeError("r0 must be nonnegative")
        self.ts, self.g, self.r0 = ts, g, r0
        self.switch_times, self.psi = self.schedule.times, tuple(psi)


class ScalarTrajectory(Record):
    """Per-point real values, ``(points,)`` or ``(points, S)`` for a stacked
    start, with their segment indices."""

    __slots__ = _fields = ("ts", "values", "segments", "approximate_maximality")

    def __init__(self, ts: TimeScale, values: np.ndarray, segments: np.ndarray,
                 approximate_maximality: bool = False):
        self.ts, self.values, self.segments = ts, values, segments
        self.approximate_maximality = approximate_maximality

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self) -> np.ndarray:
        return self.ts.points[: len(self)]

    def value_at(self, t: float) -> float:
        i = self.ts.index_of(t)
        if i >= len(self):
            raise InvalidShapeError(f"trajectory is not defined at t={t}")
        return float(self.values[i])


def solve_comparison(sys: ScalarHybridSystem, horizon: float | None = None) -> ScalarTrajectory:
    """Euler recursion r(sigma(t)) = r(t) + mu(t) * g(t, r(t), psi_k(r_k)).

    psi_k is evaluated once, at segment entry, with the handoff value
    r_k = r(t_k).  An ``(S,)`` r0 is marched as one array, each element as its
    float march.  Raises BlowUpError when g produces a non-finite value.
    """
    def freeze(k: int, r: float | np.ndarray) -> float | np.ndarray:
        return sys.psi[k](r)

    def advance(t: float, mu: float, r, v) -> tuple:
        nxt = r + mu * sys.g(t, r, v)
        if not np.isfinite(nxt).all():
            raise BlowUpError(t, f"comparison state became non-finite stepping from t={t}")
        return nxt, v

    r0 = np.array(sys.r0, dtype=float) if np.ndim(sys.r0) else float(sys.r0)
    values, segments = sys.schedule.march(r0, horizon, freeze, advance)
    dense = bool(np.any(sys.ts.graininess[: len(values) - 1] <= sys.ts.dense_threshold))
    return ScalarTrajectory(sys.ts, np.asarray(values), segments, approximate_maximality=dense)


class MonotonicityReport:
    """Sampled check of the comparison-principle monotonicity hypotheses.

    Violations are content, not errors: each entry records the sampled
    point at which a finite difference had the wrong sign.  Reports compare
    equal field by field.
    """

    __slots__ = ("samples", "seed", "box", "g_mu_r_violations", "g_v_violations",
                 "psi_violations")

    def __init__(self, samples: int, seed: int, box: tuple[float, float],
                 g_mu_r_violations: list[tuple[float, float, float, float]],
                 g_v_violations: list[tuple[float, float, float, float]],
                 psi_violations: list[tuple[int, float, float]]):
        self.samples, self.seed, self.box = samples, seed, box
        self.g_mu_r_violations, self.g_v_violations = g_mu_r_violations, g_v_violations
        self.psi_violations = psi_violations

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    @property
    def passed(self) -> bool:
        return not (self.g_mu_r_violations or self.g_v_violations or self.psi_violations)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "samples": self.samples,
            "seed": self.seed,
            "box": list(self.box),
            "g_mu_r_violations": [list(v) for v in self.g_mu_r_violations[:10]],
            "g_v_violations": [list(v) for v in self.g_v_violations[:10]],
            "psi_violations": [list(v) for v in self.psi_violations[:10]],
        }


def check_monotonicity_hypothesis(sys: ScalarHybridSystem, samples: int = 200,
                                  seed: int = 0,
                                  box: tuple[float, float] = (0.0, 10.0),
                                  tol: float = 1e-9) -> MonotonicityReport:
    """Randomized sampled verification of the three monotonicity conditions.

    Over (t, r, v) draws with r, v in ``box`` checks that
      * r -> g(t, r, v) * mu(t) + r is nondecreasing,
      * v -> g(t, r, v) is nondecreasing, and
      * v -> psi_k(v) is nondecreasing for every k.
    """
    if samples < 1:
        raise InvalidShapeError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi = box
    kappa = sys.ts.kappa_points()
    # per sample: t, then an (r1, r2) pair, a (v1, v2) pair, v and r, in one
    # uniform call (the same doubles as one call per value)
    t, x = map(np.array, zip(*[(kappa[rng.integers(0, len(kappa))], rng.uniform(lo, hi, size=6))
                               for _ in range(samples)]))
    pairs = x[:, :4].reshape(-1, 2, 2)  # each put in order, as sorted() puts two floats
    (r1, v1), (r2, v2) = pairs.min(axis=-1).T, pairs.max(axis=-1).T
    v, r = x[:, 4], x[:, 5]
    with np.errstate(over="ignore", invalid="ignore"):  # arrays overflow as silently as floats
        mu = sys.ts.mu(t)
        left = sys.g(t, r1, v) * mu + r1
        right = sys.g(t, r2, v) * mu + r2
        gv1, gv2 = sys.g(t, r, v1), sys.g(t, r, v2)
        g_mu_r = _entries(right < left - tol, t, r1, r2, right - left)
        g_v = _entries(gv2 < gv1 - tol, t, v1, v2, gv2 - gv1)
        psi_bad, count = [], max(8, samples // max(1, len(sys.psi)))
        for k, psi in enumerate(sys.psi):
            pairs = rng.uniform(lo, hi, size=(count, 2))
            p1, p2 = pairs.min(axis=-1), pairs.max(axis=-1)
            psi_bad += _entries(psi(p2) < psi(p1) - tol, k, p1, p2)
    return MonotonicityReport(samples, seed, box, g_mu_r, g_v, psi_bad)


def _entries(flags, *columns) -> list[tuple]:
    """The columns' values, one tuple per sample where ``flags`` holds, in
    sample order; a flag or column that is one value for all is repeated."""
    flags, *columns = np.broadcast_arrays(flags, *columns)
    return list(zip(*(c[flags].tolist() for c in columns)))
