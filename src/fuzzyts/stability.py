"""Lyapunov machinery and practical-stability verdicts for hybrid fuzzy systems.

The checker runs three layers and reports all of them:

1. *Hypothesis checks* — sampled validation of everything the comparison
   criterion assumes: V is sandwiched between two class-K functions of the
   state's distance to zero, V is locally Lipschitz (spot-checked, the
   estimated constant is reported), the dynamics satisfy the differential
   inequality along sampled trajectories, the comparison data are monotone
   where required, and the gate a(lambda) < b(A) holds.

2. *Comparison route* — empirical practical stability of the scalar
   comparison system over a grid of starting values r0 in [0, a(lambda)).
   When the hypothesis layer passes, these verdicts transfer to the fuzzy
   system; the implied conclusions are reported separately.

3. *Direct route* — seeded Monte-Carlo simulation of the fuzzy system
   itself over initial states with distance to zero drawn uniformly in
   (0, lambda), plus one deterministic probe at the premise boundary
   (distance exactly lambda).  Because close-by interior states follow
   close-by trajectories, a strict exceedance along the probe is counted
   only where a shrunken interior copy of the probe, solved in the same
   batch, also reaches the bound; every other probe exceedance, equality
   included, is a graze and never counted.  The per-property outcomes are
   decided by this layer: "holds-on-samples" is the strongest positive
   verdict this tool ever states, never proof.

A first-class consistency flag reports any run where the hypothesis layer
and the comparison grid both pass while the direct route still witnesses a
violation; no such run should exist.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from . import comparison as cmp, draws, fuzzy, hybrid
from .comparison import (HYPOTHESIS_TOL, ScalarHybridSystem, ScalarTrajectory, _require_finite,
                         check_monotonicity_hypothesis)
from .errors import ConfigError, Frozen, FuzzyTSError, InvalidShapeError
from .fuzzy import AlphaGrid, FuzzyVector
from .hukuhara import FuzzyTrajectory
from .hybrid import HybridFuzzySystem, StepMode
from .timescale import TimeScale

PROPERTIES = ("practically_stable", "quasi_stable", "strongly_stable", "asymptotically_stable")

HOLDS = "holds-on-samples"
VIOLATED = "violated"
NOT_TESTED = "not-tested"


class LyapunovFn(Frozen):
    """Nonnegative energy-like function of (t, state).

    V may be given a stack of states, with one t or an ``(S,)`` array of
    times aligned with the samples, and must then return an ``(S,)`` array,
    each sample's value as V of that time and state alone, as any
    composition of ``fuzzy.norm``, the time scale's ``mu``/``sigma`` and array
    arithmetic does.  A result that is the same for every sample may be a
    single float."""

    __slots__ = ("fn", "lipschitz")

    def __init__(self, fn: Callable[[float | np.ndarray, FuzzyVector], float | np.ndarray],
                 lipschitz: float | None = None):
        self._set(fn=fn, lipschitz=lipschitz)

    def __call__(self, t: float | np.ndarray, u: FuzzyVector) -> float | np.ndarray:
        return self.fn(t, u)


def norm_lyapunov() -> LyapunovFn:
    """V(t, u) = distance of u to the crisp zero."""
    return LyapunovFn(lambda t, u: fuzzy.norm(u), lipschitz=1.0)


class ClassKPair(Frozen):
    """Candidate class-K bounds a, b used to sandwich V.  Each may be given an
    ``(S,)`` array of distances and must then act element by element."""

    __slots__ = ("a", "b")

    def __init__(self, a: Callable[[float | np.ndarray], float | np.ndarray],
                 b: Callable[[float | np.ndarray], float | np.ndarray]):
        self._set(a=a, b=b)


def build_analysis(system: HybridFuzzySystem, g, psi, V: LyapunovFn, a, b,
                   r0: float | None = None) -> tuple[ScalarHybridSystem, LyapunovFn, ClassKPair]:
    """What compare and stability check ``system`` with: its comparison
    system of ``g`` from ``r0`` (by default V(t0, u0)), holding ``psi`` at
    every switch time, then ``V`` and the class-K pair (a, b)."""
    if r0 is None:
        r0 = V(float(system.ts.points[0]), system.u0)
    comparison = ScalarHybridSystem(system.ts, system.switch_times, g,
                                    (psi,) * len(system.switch_times), r0)
    return comparison, V, ClassKPair(a=a, b=b)


class StabilityQuery(Frozen):
    """Practical-stability question: premise radius lam, bounds A/B, tail T0,
    and the ``count`` initial states the direct route draws from ``seed``, of
    one ``family``: crisp, triangular or trapezoid.

    The direct test is well posed for lam <= A < rho (lam = A allowed); the
    comparison-criterion gate additionally needs a(lam) < b(A) and reports
    itself untested otherwise.
    """

    __slots__ = ("lam", "A", "B", "T0", "rho", "count", "seed", "family")

    def __init__(self, lam: float, A: float, B: float | None = None, T0: float | None = None,
                 rho: float = 100.0, count: int = 200, seed: int = 0,
                 family: str = "triangular"):
        if not (0 < lam <= A):
            raise ConfigError(f"need 0 < lambda <= A, got lambda={lam}, A={A}")
        if A >= rho:  # lambda <= A, so this also rejects lambda >= rho
            raise ConfigError(f"need A < rho, got A={A}, rho={rho}")
        if B is not None and B <= 0:
            raise ConfigError("B must be positive")
        if T0 is not None and T0 < 0:
            raise ConfigError("T0 must be nonnegative")
        if count < 1:
            raise ConfigError("sampling count must be >= 1")
        if family not in ("crisp", "triangular", "trapezoid"):
            raise ConfigError(f"unknown sampling family {family!r}")
        if not 0 <= seed < 2 ** 64:
            raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
        self._set(lam=lam, A=A, B=B, T0=T0, rho=rho, count=count, seed=seed, family=family)


# ---------------------------------------------------------------------------
# The comparison bound
# ---------------------------------------------------------------------------

BOUND_TOL = 1e-9  # the slack of V over r, at t0 too, before the comparison bound fails


def comparison_bound(times: Sequence[float], v_values: Sequence[float],
                     r_values: Sequence[float]) -> dict:
    """Check V <= r + BOUND_TOL at each point of paired ``times``, V and r
    values, or report a precondition failure where not V(t0, u0) <= r0 +
    BOUND_TOL; a nan V fails either.  ``violations`` holds (t, V, r) triples."""
    if not v_values[0] <= r_values[0] + BOUND_TOL:
        return {"holds": False, "precondition_ok": False, "checked_points": 0,
                "violations": [], "max_excess": v_values[0] - r_values[0]}
    violations = [(t, v, r) for t, v, r in zip(times, v_values, r_values)
                  if not v <= r + BOUND_TOL]
    worst = max(-math.inf, *(v - r for v, r in zip(v_values, r_values)))  # NaNs never win
    return {"holds": not violations, "precondition_ok": True, "checked_points": len(times),
            "violations": violations, "max_excess": worst}


def verify_comparison_bound(V: LyapunovFn, fuzzy_traj: FuzzyTrajectory,
                            scalar_traj: ScalarTrajectory) -> dict:
    """Check the comparison bound along paired trajectories (see
    ``comparison_bound``), on the points both reach."""
    if not np.array_equal(fuzzy_traj.ts.points, scalar_traj.ts.points):
        raise InvalidShapeError("trajectories live on different time scales")
    n = min(len(fuzzy_traj), len(scalar_traj))
    times = fuzzy_traj.times[:n].tolist()
    v_values = [V(t, u) for t, u in zip(times, fuzzy_traj.values)]
    return comparison_bound(times, v_values, scalar_traj.values[:n].tolist())


# ---------------------------------------------------------------------------
# Initial-condition sampling
# ---------------------------------------------------------------------------

# Draws a sample may take before the sampler gives up.  Nearly-zero draws
# are redrawn; a generator that keeps producing them is broken, not unlucky.
MAX_SAMPLE_ATTEMPTS = 1000


def _cuts(grid: AlphaGrid, x: np.ndarray, family: str):
    """make_trapezoid's ``(S, n, m)`` cuts, and their ``(S,)`` norms, of S
    draws' ``(S, n, k)`` uniforms: per component the core c in (-1, 1), then
    for triangles (k = 3) and trapezoids (k = 4) the widths wl and wr in
    (0, 1), then for trapezoids the core half-width in (0, 0.5)."""
    c = 2.0 * x[..., 0] - 1.0
    if family == "crisp":
        a = b = d = c
    else:
        wl, wr = x[..., 1], x[..., 2]
        half = 0.5 * x[..., 3] if family == "trapezoid" else 0.0
        a, b, c, d = c - half - wl, c - half, c + half, c + wr + half
    a, b, c, d = (e[..., None] for e in (a, b, c, d))
    lower, upper = a + grid.levels * (b - a), d - grid.levels * (d - c)
    return lower, upper, np.maximum(np.abs(lower), np.abs(upper)).max(axis=(-2, -1))


def _sample(rng: draws.Stream, grid: AlphaGrid, n: int, family: str,
            radius: float, count: int):
    """``count`` random states with distance to zero uniform in (0, radius),
    as ``(count, n, m)`` lower and upper cuts.

    State i is row i of one ``(count, 1 + n * k)`` uniform draw: its distance,
    then each component's k uniforms (see ``_cuts``).  The cuts are rescaled
    to the distance; by absolute homogeneity of the metric that keeps their
    shape.  Rows whose distance is 0 or whose state is nearly zero are drawn
    again, together, from the next values of the stream, at most
    ``MAX_SAMPLE_ATTEMPTS`` draws in all before ConfigError is raised."""
    lower, upper = np.empty((2, count, n, grid.m))
    target, size = np.empty((2, count))
    todo = np.arange(count)
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        u = rng.random((todo.size, 1 + n * {"crisp": 1, "triangular": 3}.get(family, 4)))
        target[todo] = radius * u[:, 0]
        lower[todo], upper[todo], size[todo] = _cuts(grid, u[:, 1:].reshape(todo.size, n, -1),
                                                      family)
        todo = todo[(target[todo] == 0.0) | (size[todo] <= 1e-9)]
        if not todo.size:
            k = (target / size)[:, None, None]
            return k * lower, k * upper
    raise ConfigError(f"initial-state sampler drew {MAX_SAMPLE_ATTEMPTS} nearly-zero "
                      f"{family} states in a row; the random generator is degenerate")


def boundary_probe(grid: AlphaGrid, n: int, family: str, lam: float) -> FuzzyVector:
    """Deterministic probe at the premise boundary (distance exactly lam)."""
    if family == "crisp":
        comp = fuzzy.crisp(lam, grid)
    else:
        comp = fuzzy.make_triangle(-lam, 0.0, lam, grid)
    return FuzzyVector(tuple(comp for _ in range(n)))


# ---------------------------------------------------------------------------
# Verdict structure
# ---------------------------------------------------------------------------

class Witness:
    """Concrete violation: which trajectory, where, and how large.  A
    ``sample`` of -1 marks the boundary probe; ``u0`` is serialised only
    when reported."""

    __slots__ = ("property", "t", "value", "bound", "mode", "sample", "u0")

    def __init__(self, property: str, t: float, value: float, bound: float, mode: str,
                 sample: int, u0: FuzzyVector):
        self.property, self.t, self.value, self.bound = property, t, value, bound
        self.mode, self.sample, self.u0 = mode, sample, u0

    def to_dict(self) -> dict:
        return {
            "property": self.property,
            "t": self.t,
            "value": self.value,
            "bound": self.bound,
            "mode": self.mode,
            "sample": self.sample,
            "u0_distance": fuzzy.norm(self.u0),
            "u0": self.u0.to_records(),
        }


class Verdict:
    """Structured result of a practical-stability check; ``properties`` maps
    each name to ``{"status": ..., "witness": ... | None}``."""

    __slots__ = ("properties", "hypothesis_report", "comparison_verdict",
                 "implied_conclusions", "consistency", "metadata")

    def __init__(self, properties: dict, hypothesis_report: dict, comparison_verdict: dict,
                 implied_conclusions: dict, consistency: dict, metadata: dict):
        self.properties, self.hypothesis_report = properties, hypothesis_report
        self.comparison_verdict, self.implied_conclusions = comparison_verdict, implied_conclusions
        self.consistency, self.metadata = consistency, metadata

    def to_dict(self) -> dict:
        """The fields as a dict, sharing their values: no copy is made."""
        return {name: getattr(self, name) for name in self.__slots__}

    @property
    def any_violation(self) -> bool:
        return any(p["status"] == VIOLATED for p in self.properties.values()) \
            or self.consistency.get("inconsistent", False)

    @property
    def all_tested_hold(self) -> bool:
        tested = [p for p in self.properties.values() if p["status"] != NOT_TESTED]
        return bool(tested) and all(p["status"] == HOLDS for p in tested)

    def exit_code(self) -> int:
        if self.any_violation:
            return 1
        if self.all_tested_hold:
            return 0
        return 2


# ---------------------------------------------------------------------------
# Hypothesis layer
# ---------------------------------------------------------------------------

# States drawn by each sampled hypothesis check (whose margins may show
# HYPOTHESIS_TOL of slack), and the points on which a and b are checked.
HYPOTHESIS_SAMPLES = 100
CLASS_K_POINTS = 101


@np.errstate(over="ignore", invalid="ignore")  # a and b overflow as silently as on floats
def _validate_class_k(kpair: ClassKPair, xmax: float) -> dict:
    xs = np.linspace(0.0, xmax, CLASS_K_POINTS)
    out = {}
    for name, f in (("a", kpair.a), ("b", kpair.b)):
        values = np.broadcast_to(f(xs), xs.shape)  # one value for every x may be a float
        _require_finite({"x": xs}, {name: values})
        zero_ok = abs(values[0]) <= 1e-12
        diffs = np.diff(values)
        out[name] = {
            "zero_at_zero": bool(zero_ok),
            "strictly_increasing": bool(np.all(diffs > 0)),
            "min_increment": float(diffs.min()),
        }
        out[name]["passed"] = out[name]["zero_at_zero"] and out[name]["strictly_increasing"]
    out["grid_max"] = float(xmax)
    out["passed"] = out["a"]["passed"] and out["b"]["passed"]
    return out


def _draw_layer(ts: TimeScale, horizon: float, grid: AlphaGrid, n: int, family: str,
                radius: float, rng: draws.Stream, samples: int, states: int):
    """A check's draws: ``samples`` of ``ts.kappa_points(horizon)``, where V is
    used, then ``states`` states per sample with distance to zero uniform in
    (0, radius).  Returns the ``(samples,)`` points and one stack of the
    states, sample by sample."""
    points = ts.kappa_points(horizon)
    t = points[rng.integers(0, len(points), size=samples)]
    return t, FuzzyVector.from_arrays(grid, *_sample(rng, grid, n, family, radius,
                                                     samples * states))


def _first_min(values: np.ndarray) -> float:
    """min() from inf over the values: NaNs never win; of equal minima, the first."""
    kept = values[~np.isnan(values)]
    return float(kept[np.argmin(kept)]) if kept.size else math.inf


# V, a and b on arrays overflow as silently as on one sample's floats
@np.errstate(over="ignore", invalid="ignore")
def _check_sandwich(V: LyapunovFn, kpair: ClassKPair, ts: TimeScale, horizon: float,
                    grid: AlphaGrid, n: int, family: str, radius: float,
                    rng: draws.Stream, samples: int) -> dict:
    t, u = _draw_layer(ts, horizon, grid, n, family, radius, rng, samples, 1)
    d = fuzzy.norm(u)
    v = np.broadcast_to(V(t, u), d.shape)  # one V for every sample may be a float
    a, b = kpair.a(d), kpair.b(d)
    _require_finite({"t": t, "d": d}, {"V": v, "a": a, "b": b})
    low_margin = v - b
    high_margin = a - v
    bad = np.flatnonzero((low_margin < -HYPOTHESIS_TOL) | (high_margin < -HYPOTHESIS_TOL))
    return {
        "passed": not bad.size,
        "samples": samples,
        "worst_lower_margin": _first_min(low_margin),
        "worst_upper_margin": _first_min(high_margin),
        "violations": [[float(t[i]), float(d[i]), float(v[i])] for i in bad[:10].tolist()],
    }


@np.errstate(over="ignore", invalid="ignore")
def _check_lipschitz(V: LyapunovFn, ts: TimeScale, horizon: float, grid: AlphaGrid, n: int,
                     family: str, radius: float, rng: draws.Stream,
                     samples: int) -> dict:
    t, pairs = _draw_layer(ts, horizon, grid, n, family, radius, rng, samples, 2)
    u1, u2 = pairs.take(slice(0, None, 2)), pairs.take(slice(1, None, 2))
    gap = fuzzy.dist(u1, u2)
    rows = np.flatnonzero(gap > 1e-12)  # V is not called on the nearly equal pairs
    estimate = 0.0
    if rows.size:
        t = t[rows]
        v1, v2 = (np.broadcast_to(V(t, u.take(rows)), t.shape) for u in (u1, u2))
        _require_finite({"t": t[:, None]}, {"V": np.stack((v1, v2), axis=-1)})  # pair by pair
        estimate = float(np.max(np.abs(v1 - v2) / gap[rows]))
    declared = V.lipschitz
    ok = True if declared is None else estimate <= declared * (1.0 + 1e-9) + 1e-12
    return {
        "passed": bool(rows.size and ok and math.isfinite(estimate)),  # no pair, no pass
        "estimated_constant": estimate,
        "declared_constant": declared,
        "samples": samples,
    }


# g and psi on arrays overflow as silently as on one sample's floats
@np.errstate(over="ignore", invalid="ignore")
def _check_condition_ii(comp: ScalarHybridSystem, stacks: Sequence[tuple]) -> dict:
    """Differential inequality along each sampled trajectory, on comp's time
    scale, from the ``(points, samples)`` V values of each mode's stack (see
    ``_simulate_direct``), which must be finite; g and psi get one ``(S,)``
    array per point."""
    worst = math.inf
    violations = []
    checked = 0
    for mode, sample_ids, _, v in stacks:
        times = comp.ts.points[:len(v)].tolist()
        if not sample_ids or len(times) < 2:
            continue
        _require_finite({"t": times, "mode": mode, "sample": np.array(sample_ids)[:, None]},
                        {"V": v.T})  # sample by sample, in listing order
        v_at = dict(zip(times, v))  # the Dini estimate looks V's rows up by time
        held = {}  # segment k -> psi_k(V at its switch time)
        lhs, rhs = np.empty((2, len(times) - 1, len(sample_ids)))
        for i, (t, k) in enumerate(zip(times[:-1], comp.schedule.segments.tolist())):
            if k not in held:
                held[k] = comp.psi[k](v_at[comp.switch_times[k]])
            lhs[i] = comp.ts.upper_dini(v_at.__getitem__, t, horizon=times[-1])
            rhs[i] = comp.g(t, v[i], held[k])
        margin = (rhs - lhs).T  # (samples, points), in listing order
        worst = min(worst, _first_min(margin))
        checked += margin.size
        bad = np.argwhere(margin < -HYPOTHESIS_TOL)[: 10 - len(violations)].tolist()
        violations += [[times[i], float(lhs[i, j]), float(rhs[i, j]), mode, sample_ids[j]]
                       for j, i in bad]
    return {
        "passed": bool(checked) and not violations,
        "checked_steps": checked,
        "worst_margin": worst if checked else None,
        "violations": violations,
    }


# ---------------------------------------------------------------------------
# Comparison route
# ---------------------------------------------------------------------------

# Starting values r0 of the comparison grid over [0, a(lambda)).
COMPARISON_GRID_SIZE = 16


def _comparison_route(comp: ScalarHybridSystem, kpair: ClassKPair, q: StabilityQuery,
                      horizon: float) -> dict:
    a_lam = float(kpair.a(q.lam))
    b_A = float(kpair.b(q.A))
    b_B = float(kpair.b(q.B)) if q.B is not None else None
    t0 = float(comp.ts.points[0])
    starts = (np.linspace(0.0, a_lam, COMPARISON_GRID_SIZE, endpoint=False) if a_lam > 0
              else np.array([0.0]))
    try:  # one march of every start: as on floats, overflow and nan are silent, x/0 raises
        with np.errstate(over="ignore", invalid="ignore", divide="raise"):
            traj = cmp.solve_comparison(comp.replace(r0=starts), horizon=horizon)
    except (FuzzyTSError, ArithmeticError):  # start by start: the first failing start raises
        trajs = [cmp.solve_comparison(comp.replace(r0=float(r0)), horizon=horizon)
                 for r0 in starts]
        traj = trajs[0].replace(values=np.stack([t.values for t in trajs], axis=1))
    peaks = traj.values.max(axis=0)  # every value is finite
    bad = np.flatnonzero(peaks >= b_A)
    t_bad = traj.times[np.argmax(traj.values[:, bad] >= b_A, axis=0)]
    failures = [{"r0": float(starts[j]), "t": float(t), "r": float(peaks[j]), "bound": b_A}
                for j, t in zip(bad, t_bad)]
    stable = not failures
    quasi = True if (b_B is not None and q.T0 is not None) else None
    if quasi is not None:
        tail = traj.values[traj.times >= t0 + q.T0]
        quasi = not (tail.size and float(np.max(tail)) >= b_B)
    # the tail bound with b(A) is implied by the full-horizon bound
    asymptotic = stable
    strong = None if quasi is None else (stable and quasi)

    def status(flag):
        if flag is None:
            return NOT_TESTED
        return HOLDS if flag else VIOLATED

    return {
        "grid_size": int(starts.size),
        "r0_max": float(starts.max()) if starts.size else 0.0,
        "a_lambda": a_lam,
        "b_A": b_A,
        "b_B": b_B,
        "approximate_maximality": traj.approximate_maximality,
        "worst_peak": float(peaks.max()),
        "failures": failures[:10],
        "practically_stable": status(stable),
        "quasi_stable": status(quasi),
        "strongly_stable": status(strong),
        "asymptotically_stable": status(asymptotic),
    }


# ---------------------------------------------------------------------------
# Direct route and the full checker
# ---------------------------------------------------------------------------

def _simulate_direct(sys: HybridFuzzySystem, V: LyapunovFn, q: StabilityQuery, horizon: float,
                     modes: tuple[StepMode, ...]):
    """One stacked solve per mode of every direct-route initial state, which
    reads each point's stack as it is made: each sample's distance to zero
    and V value are kept, not its states.

    Batch row 0 is the deterministic boundary probe, sample -1; row i + 1 is
    seeded Monte-Carlo draw i, with premise distance uniform in (0, lambda);
    the last row, a shrunken interior copy of the probe, is never a sample.
    Returns (mode, surviving sample ids, distances, V values) per mode, the
    last two ``(points, samples)`` arrays; the skipped samples (contractive
    failures are recorded and skipped, not treated as verdicts); per mode,
    the shrunken copy's distance to zero at every point, or None when its
    march failed; and the batch."""
    grid = sys.u0.grid
    n = sys.u0.n
    probe = boundary_probe(grid, n, q.family, q.lam)
    lower, upper = _sample(draws.Stream(q.seed, 2), grid, n, q.family, q.lam, q.count)
    shrunk = fuzzy.scale(1.0 - 1e-9, probe)
    shrunk_row = q.count + 1
    batch = FuzzyVector.from_arrays(grid, np.concatenate(([probe.lower], lower, [shrunk.lower])),
                                    np.concatenate(([probe.upper], upper, [shrunk.upper])))
    try:
        system = sys.replace(u0=batch)
    except InvalidShapeError as exc:
        distance = fuzzy.norm(batch)
        first = int(np.argmax(distance >= sys.rho))
        raise ConfigError(
            f"sampled initial state (distance {distance[first]:g}) lies "
            f"outside the validity ball of radius {sys.rho:g}") from exc

    def read(t, u):
        with np.errstate(over="ignore", invalid="ignore"):  # V as on one sample's floats
            return fuzzy.norm(u), V(t, u)

    stacks = []
    skipped = []
    shrunk_distance = []
    for mode in modes:
        failures = {}
        march = hybrid.solve(system, mode, horizon, read, failures)
        distance, v = np.empty((2, len(march), shrunk_row + 1))  # entries of failed rows unread
        for i, (rows, (d, vi)) in enumerate(march):
            distance[i, rows], v[i, rows] = d, vi
        # the shrunken copy's distances, if it reached the horizon
        inner = distance[:, shrunk_row] if failures.pop(shrunk_row, None) is None else None
        rows = np.array([row for row in range(shrunk_row) if row not in failures], dtype=int)
        keep = rows if failures else slice(-1)  # the rows that reached the horizon
        distance, v = distance[:, keep], v[:, keep]
        skipped += [{"mode": mode.value, "sample": row - 1, "t": failures[row].t}
                    for row in sorted(failures)]
        stacks.append((mode.value, (rows - 1).tolist(), distance, v))
        shrunk_distance.append(inner)
    return stacks, skipped, shrunk_distance, batch


def _direct_route(sys: HybridFuzzySystem, V: LyapunovFn, q: StabilityQuery, horizon: float,
                  modes: tuple[StepMode, ...]):
    """Monte-Carlo test of the practical-stability definitions."""
    stacks, skipped, shrunk_distance, batch = _simulate_direct(sys, V, q, horizon, modes)
    t0 = float(sys.ts.points[0])
    # property -> (sort key, value, bound) of its earliest exceedance; a
    # Witness is built only for the ones reported
    earliest: dict[str, tuple] = {}
    probe_grazes = []

    for (mode, sample_ids, distance, _), inner in zip(stacks, shrunk_distance):
        times = sys.ts.points[:len(distance)]
        everywhere = np.ones(len(times), dtype=bool)
        tail = (times >= t0 + q.T0) if q.T0 is not None else ~everywhere
        times = times.tolist()
        bounds = [("practically_stable", q.A, everywhere)]  # below A for all t
        if q.B is not None:
            bounds.append(("quasi_stable", q.B, tail))  # below B from t0 + T0 on
        bounds.append(("asymptotically_stable", q.A, tail))  # below A from t0 + T0 on
        probe = sample_ids[:1] == [-1]
        grazes = np.zeros((len(times), len(bounds)), dtype=bool)  # (points, properties)
        for p, (prop, bound, when) in enumerate(bounds):
            hit = (distance >= bound) & when[:, None]
            if probe:  # a strict excess counts where the shrunken copy also reaches the bound
                counted = hit[:, 0] & (distance[:, 0] > bound)
                counted &= (inner >= bound) if inner is not None else False
                grazes[:, p] = hit[:, 0] & ~counted
                hit[:, 0] = counted
            if hit.any():  # the earliest point, then the lowest sample id
                i, j = np.unravel_index(np.argmax(hit), hit.shape)
                key = (times[i], sample_ids[j], mode, prop)
                if prop not in earliest or key < earliest[prop][0]:
                    earliest[prop] = (key, float(distance[i, j]), bound)
        probe_grazes += [{"property": bounds[p][0], "mode": mode, "t": times[i],
                          "value": float(distance[i, 0])} for i, p in np.argwhere(grazes)]

    # no surviving trajectory means nothing was tested, never "holds"
    stable_testable = any(sample_ids for _, sample_ids, _, _ in stacks)
    quasi_testable = stable_testable and q.B is not None and q.T0 is not None

    def outcome(testable, *props):
        """Status of a property that fails with any of ``props``, carrying
        the earliest witness among them."""
        if not testable:
            return {"status": NOT_TESTED, "witness": None}
        found = [earliest[p] for p in props if p in earliest]
        if found:
            (t, sample_id, mode, prop), value, bound = min(found, key=lambda f: f[0])
            witness = Witness(prop, t, value, bound, mode, sample_id, batch.take(sample_id + 1))
            return {"status": VIOLATED, "witness": witness.to_dict()}
        return {"status": HOLDS, "witness": None}

    outcomes: dict[str, dict] = {}
    outcomes["practically_stable"] = outcome(stable_testable, "practically_stable")
    outcomes["quasi_stable"] = outcome(quasi_testable, "quasi_stable")
    # strong = stable and quasi
    outcomes["strongly_stable"] = outcome(quasi_testable, "practically_stable", "quasi_stable")
    # asymptotic = stability plus the tail bound with A beyond t0 + T0; when
    # no T0 is given the tail requirement is witnessed by T0 = 0, so the
    # outcome coincides with plain stability
    outcomes["asymptotically_stable"] = outcome(stable_testable, "practically_stable",
                                                "asymptotically_stable")
    return outcomes, stacks, skipped, probe_grazes


def check_practical_stability(sys: HybridFuzzySystem, comp: ScalarHybridSystem,
                              V: LyapunovFn, kpair: ClassKPair, q: StabilityQuery,
                              horizon: float,
                              modes: Sequence[StepMode] = (StepMode.EXPANSIVE,
                                                           StepMode.CONTRACTIVE)) -> Verdict:
    """Full practical-stability check; see the module docstring for the layers."""
    sys.ts.index_of(horizon)
    modes = tuple(modes)
    grid = sys.u0.grid
    n = sys.u0.n

    # Layer 1: hypothesis checks.
    xmax = max(q.A, q.lam, q.B or 0.0, 1.0) * 1.5
    class_k = _validate_class_k(kpair, xmax)
    a_lam = float(kpair.a(q.lam))
    b_A = float(kpair.b(q.A))
    gate = {"a_lambda": a_lam, "b_A": b_A, "passed": a_lam < b_A}
    sandwich = _check_sandwich(V, kpair, sys.ts, horizon, grid, n, q.family,
                               radius=q.A, rng=draws.Stream(q.seed, 0),
                               samples=HYPOTHESIS_SAMPLES)
    lipschitz = _check_lipschitz(V, sys.ts, horizon, grid, n, q.family,
                                 radius=min(q.rho, 2.0 * q.A),
                                 rng=draws.Stream(q.seed, 1),
                                 samples=HYPOTHESIS_SAMPLES)
    monotonicity = check_monotonicity_hypothesis(
        comp, samples=HYPOTHESIS_SAMPLES, seed=q.seed,
        box=(0.0, max(1.0, 2.0 * b_A)), horizon=horizon)

    # Layer 3 runs first so its V values can feed the condition (ii) check.
    outcomes, stacks, skipped, grazes = _direct_route(sys, V, q, horizon, modes)
    cond_ii = _check_condition_ii(comp, stacks)

    hypothesis_report = {
        "class_k": class_k,
        "gate_a_lambda_lt_b_A": gate,
        "sandwich": sandwich,
        "lipschitz": lipschitz,
        "monotonicity": {key: value[:10] if key.endswith("_violations") else value
                         for key, value in monotonicity.items()},
        "condition_ii": cond_ii,
    }
    hyp_passed = all(entry["passed"] for entry in hypothesis_report.values())
    hypothesis_report["all_passed"] = hyp_passed

    # Layer 2: comparison route.
    comparison_verdict = _comparison_route(comp, kpair, q, horizon)

    implied, inconsistencies = {}, []
    for prop in PROPERTIES:
        if not hyp_passed:
            implied[prop] = NOT_TESTED + " (hypotheses not established on samples)"
        elif comparison_verdict[prop] == HOLDS:
            implied[prop] = HOLDS + " (transferred from the comparison system)"
            if outcomes[prop]["status"] == VIOLATED:
                inconsistencies.append({"property": prop, "witness": outcomes[prop]["witness"]})
        elif comparison_verdict[prop] == VIOLATED:
            implied[prop] = "no conclusion (comparison system not stable on the grid)"
        else:
            implied[prop] = NOT_TESTED
    consistency = {
        "checked": hyp_passed,
        "inconsistent": bool(inconsistencies),
        "details": inconsistencies,
    }

    metadata = {
        "lambda": q.lam,
        "A": q.A,
        "B": q.B,
        "T0": q.T0,
        "rho": q.rho,
        "horizon": horizon,
        "modes": [m.value for m in modes],
        "sampling": {"count": q.count, "seed": q.seed, "family": q.family},
        "trajectories": sum(len(sample_ids) for _, sample_ids, _, _ in stacks),
        "skipped_step_failures": skipped[:20],
        "probe_grazes": grazes[:20],
        "quantifier_note": (
            "definitions quantify over every solution and initial state; this tool "
            "samples seeded initial states with premise distance uniform in "
            "(0, lambda), adds one boundary probe at distance lambda, and runs the "
            "listed step modes"
        ),
    }

    return Verdict(
        properties=outcomes,
        hypothesis_report=hypothesis_report,
        comparison_verdict=comparison_verdict,
        implied_conclusions=implied,
        consistency=consistency,
        metadata=metadata,
    )
