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

from . import draws
from .errors import BlowUpError, ConfigError, InvalidShapeError, Record
from .timescale import SwitchSchedule, TimeScale

# g and psi may be given ``(S,)`` arrays, one value per sample (g also an
# ``(S,)`` t), and must then act element by element, as any composition of
# numpy arithmetic and the time scale's mu/sigma does.  A result that is the
# same for every sample may be a single float.
GFn = Callable[[float | np.ndarray, float | np.ndarray, float | np.ndarray], float | np.ndarray]
PsiFn = Callable[[float | np.ndarray], float | np.ndarray]

# The slack a sampled hypothesis check's margins may show before a violation.
HYPOTHESIS_TOL = 1e-9


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
    segments, values = zip(*sys.schedule.march(r0, horizon, freeze, advance))
    dense = bool(np.any(sys.ts.graininess[: len(values) - 1] <= sys.ts.dense_threshold))
    return ScalarTrajectory(sys.ts, np.asarray(values), np.array(segments),
                            approximate_maximality=dense)


def check_monotonicity_hypothesis(sys: ScalarHybridSystem, samples: int = 200, seed: int = 0,
                                  box: tuple[float, float] = (0.0, 10.0),
                                  horizon: float | None = None) -> dict:
    """Randomized sampled verification of the three monotonicity conditions.

    Over (t, r, v) draws, t a point before ``horizon`` (default: the terminal
    point; none when it is the first, and then the check fails) and r, v in
    ``box``, checks that
      * r -> g(t, r, v) * mu(t) + r is nondecreasing,
      * v -> g(t, r, v) is nondecreasing, and
      * v -> psi_k(v) is nondecreasing for every k.
    Violations are content, not errors: each draw with a wrong-signed
    difference is listed, as [t, r1, r2, gap], [t, v1, v2, gap] or [k, v1, v2].
    A non-finite g or psi value, which no difference can order, raises
    ConfigError naming the first one, draw by draw.
    """
    if samples < 1:
        raise InvalidShapeError("samples must be >= 1")
    rng = draws.Stream(seed, 3)
    lo, hi = box
    times = sys.ts.points[:len(sys.ts) - 1 if horizon is None else sys.ts.index_of(horizon)]
    g_mu_r, g_v, psi_bad = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):  # arrays overflow as silently as floats
        if len(times):
            # every sample's t, then per sample an (r1, r2) pair, a (v1, v2)
            # pair, v and r, in one row
            t = times[rng.integers(0, len(times), size=samples)]
            x = rng.uniform(lo, hi, size=(samples, 6))
            pairs = x[:, :4].reshape(-1, 2, 2)  # each put in order, as sorted() puts two floats
            (r1, v1), (r2, v2) = pairs.min(axis=-1).T, pairs.max(axis=-1).T
            v, r = x[:, 4], x[:, 5]
            mu = sys.ts.mu(t)
            g1, g2, gv1, gv2 = (np.broadcast_to(sys.g(t, *rv), t.shape)
                                for rv in ((r1, v), (r2, v), (r, v1), (r, v2)))
            _require_finite({"t": t[:, None], "r": np.stack((r1, r2, r, r), axis=-1),
                             "v": np.stack((v, v, v1, v2), axis=-1)},  # sample by sample
                            {"g": np.stack((g1, g2, gv1, gv2), axis=-1)})
            left, right = g1 * mu + r1, g2 * mu + r2
            g_mu_r = _entries(right < left - HYPOTHESIS_TOL, t, r1, r2, right - left)
            g_v = _entries(gv2 < gv1 - HYPOTHESIS_TOL, t, v1, v2, gv2 - gv1)
        count = max(8, samples // max(1, len(sys.psi)))
        for k, psi in enumerate(sys.psi):
            pairs = rng.uniform(lo, hi, size=(count, 2))
            p1, p2 = pairs.min(axis=-1), pairs.max(axis=-1)
            q1, q2 = (np.broadcast_to(psi(p), p.shape) for p in (p1, p2))
            _require_finite({"k": k, "v": np.stack((p1, p2), axis=-1)},
                            {"psi": np.stack((q1, q2), axis=-1)})
            psi_bad += _entries(q2 < q1 - HYPOTHESIS_TOL, k, p1, p2)
    passed = bool(len(times)) and not (g_mu_r or g_v or psi_bad)  # no g checked, no pass
    return {"passed": passed, "samples": samples, "seed": seed, "box": list(box),
            "g_mu_r_violations": g_mu_r, "g_v_violations": g_v, "psi_violations": psi_bad}


def _require_finite(at: dict[str, np.ndarray], values: dict[str, np.ndarray]) -> None:
    """Raise ConfigError at the first point, in row-major order, where a
    function's ``values`` are not finite, naming the first such function
    there, its arguments ``at`` (broadcast to the values' shape) and its value."""
    table = np.stack(np.broadcast_arrays(*values.values()), axis=-1)  # (points..., functions)
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        *i, j = bad[0]
        where = ", ".join(f"{key}={np.broadcast_to(arg, table.shape[:-1])[tuple(i)].item()}"
                          for key, arg in at.items())
        raise ConfigError(f"{list(values)[j]} is not finite at {where}: "
                          f"{float(table[tuple(bad[0])])!r}")


def _entries(flags, *columns) -> list[list]:
    """The columns' values, one list per sample where ``flags`` holds, in
    sample order; a flag or column that is one value for all is repeated."""
    flags, *columns = np.broadcast_arrays(flags, *columns)
    return list(map(list, zip(*(c[flags].tolist() for c in columns))))
