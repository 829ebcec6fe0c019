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

from . import comparison as cmp, fuzzy, hybrid
from .comparison import ScalarHybridSystem, ScalarTrajectory, check_monotonicity_hypothesis
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


class SamplingPlan(Frozen):
    """``family`` is one of crisp, triangular and trapezoid."""

    __slots__ = ("count", "seed", "family")

    def __init__(self, count: int = 200, seed: int = 0, family: str = "triangular"):
        if count < 1:
            raise ConfigError("sampling count must be >= 1")
        if family not in ("crisp", "triangular", "trapezoid"):
            raise ConfigError(f"unknown sampling family {family!r}")
        self._set(count=count, seed=seed, family=family)


class StabilityQuery(Frozen):
    """Practical-stability question: premise radius lam, bounds A/B, tail T0.

    The direct test is well posed for lam <= A < rho (lam = A allowed); the
    comparison-criterion gate additionally needs a(lam) < b(A) and reports
    itself untested otherwise.  ``sampling`` defaults to a fresh
    ``SamplingPlan()``.
    """

    __slots__ = ("lam", "A", "B", "T0", "rho", "sampling")

    def __init__(self, lam: float, A: float, B: float | None = None, T0: float | None = None,
                 rho: float = 100.0, sampling: SamplingPlan | None = None):
        if not (0 < lam <= A):
            raise ConfigError(f"need 0 < lambda <= A, got lambda={lam}, A={A}")
        if A >= rho:  # lambda <= A, so this also rejects lambda >= rho
            raise ConfigError(f"need A < rho, got A={A}, rho={rho}")
        if B is not None and B <= 0:
            raise ConfigError("B must be positive")
        if T0 is not None and T0 < 0:
            raise ConfigError("T0 must be nonnegative")
        self._set(lam=lam, A=A, B=B, T0=T0, rho=rho,
                  sampling=SamplingPlan() if sampling is None else sampling)


# ---------------------------------------------------------------------------
# Dini derivative along a trajectory and the comparison bound
# ---------------------------------------------------------------------------

def dini_along_solution(V: LyapunovFn, traj: FuzzyTrajectory, t: float) -> float:
    """Upper Dini derivative of t -> V(t, u(t)) along a stored trajectory.

    The time scale's upper Dini estimate of that function, with quotients
    taken only over points the trajectory reaches.
    """
    return traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), t, horizon=traj.horizon)


class BoundReport:
    """Outcome of checking V(t, u(t)) <= r(t) + tol point by point;
    ``violations`` holds (t, V, r) triples."""

    __slots__ = ("precondition_ok", "checked_points", "violations", "max_excess")

    def __init__(self, precondition_ok: bool, checked_points: int,
                 violations: list[tuple[float, float, float]], max_excess: float):
        self.precondition_ok, self.checked_points = precondition_ok, checked_points
        self.violations, self.max_excess = violations, max_excess

    @property
    def holds(self) -> bool:
        return self.precondition_ok and not self.violations

    def to_dict(self) -> dict:
        return {
            "precondition_ok": self.precondition_ok,
            "checked_points": self.checked_points,
            "violations": [list(v) for v in self.violations[:10]],
            "max_excess": self.max_excess,
            "holds": self.holds,
        }


def verify_comparison_bound(V: LyapunovFn, fuzzy_traj: FuzzyTrajectory,
                            scalar_traj: ScalarTrajectory, tol: float = 1e-9) -> BoundReport:
    """Check the comparison bound along paired trajectories.

    Requires the hypothesis V(t0, u0) <= r0 + tol; when it fails the check
    is skipped and reported as a precondition failure.
    """
    if fuzzy_traj.ts is not scalar_traj.ts and not np.array_equal(
            fuzzy_traj.ts.points, scalar_traj.ts.points):
        raise InvalidShapeError("trajectories live on different time scales")
    n = min(len(fuzzy_traj), len(scalar_traj))
    t0 = float(fuzzy_traj.ts.points[0])
    v0 = V(t0, fuzzy_traj.values[0])
    if v0 > float(scalar_traj.values[0]) + tol:
        return BoundReport(False, 0, [], max_excess=v0 - float(scalar_traj.values[0]))
    violations = []
    worst = -math.inf
    for i in range(n):
        t = float(fuzzy_traj.ts.points[i])
        v = V(t, fuzzy_traj.values[i])
        r = float(scalar_traj.values[i])
        worst = max(worst, v - r)
        if v > r + tol:
            violations.append((t, v, r))
    return BoundReport(True, n, violations, max_excess=worst)


# ---------------------------------------------------------------------------
# Initial-condition sampling
# ---------------------------------------------------------------------------

# Draws a sample may take before the sampler gives up.  Nearly-zero draws
# are redrawn; a generator that keeps producing them is broken, not unlucky.
MAX_SAMPLE_ATTEMPTS = 1000


def _cuts(grid: AlphaGrid, nodes: list, targets: list | None = None):
    """make_trapezoid's ``(S, n, m)`` cuts of S draws' ``(S, n, 4)`` support and
    core ends (a, b, c, d), each rescaled to its target distance as that draw
    alone; without targets, the ``(S,)`` norms of the draws."""
    a, b, c, d = np.moveaxis(np.array(nodes), -1, 0)[..., None]
    lower, upper = a + grid.levels * (b - a), d - grid.levels * (d - c)
    size = np.maximum(np.abs(lower), np.abs(upper)).max(axis=(-2, -1))
    if targets is None:
        return size
    k = (np.array(targets) / size)[:, None, None]
    return k * lower, k * upper


def _draw(rng: np.random.Generator, grid: AlphaGrid, n: int, family: str) -> list:
    """Per component, the (a, b, c, d) of one ``sample_initial_state`` draw."""
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        nodes = []
        for _ in range(n):
            c = float(rng.uniform(-1.0, 1.0))
            if family == "crisp":
                nodes.append((c, c, c, c))
            elif family == "triangular":
                wl = float(rng.uniform(0.0, 1.0))
                wr = float(rng.uniform(0.0, 1.0))
                nodes.append((c - wl, c, c, c + wr))
            else:
                wl = float(rng.uniform(0.0, 1.0))
                wr = float(rng.uniform(0.0, 1.0))
                half = float(rng.uniform(0.0, 0.5))
                nodes.append((c - half - wl, c - half, c + half, c + wr + half))
        # the alpha-0 cut is exactly [a, d], so the draw's norm is at least max(|a|, |d|)
        if (any(abs(a) > 1e-9 or abs(d) > 1e-9 for a, _, _, d in nodes)
                or _cuts(grid, [nodes])[0] > 1e-9):
            return nodes
    raise ConfigError(f"initial-state sampler drew {MAX_SAMPLE_ATTEMPTS} nearly-zero "
                      f"{family} states in a row; the random generator is degenerate")


def sample_initial_state(rng: np.random.Generator, grid: AlphaGrid, n: int,
                         family: str, target: float) -> FuzzyVector:
    """Random fuzzy vector with distance to zero exactly ``target``.

    Cores and widths are drawn uniformly, then the vector is rescaled; by
    absolute homogeneity of the metric the rescale lands the distance on
    target while preserving shape.  A nearly-zero draw cannot be rescaled
    and is redrawn from the same generator, at most ``MAX_SAMPLE_ATTEMPTS``
    times in all before ConfigError is raised.
    """
    lower, upper = _cuts(grid, [_draw(rng, grid, n, family)], [target])
    return FuzzyVector.from_arrays(grid, lower[0], upper[0])


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

# States drawn by each sampled hypothesis check, and the slack its margins
# may show before a sample counts as a violation.
HYPOTHESIS_SAMPLES = 100
HYPOTHESIS_TOL = 1e-9


def _validate_class_k(kpair: ClassKPair, xmax: float, points: int = 101) -> dict:
    xs = np.linspace(0.0, xmax, points)
    out = {}
    for name, f in (("a", kpair.a), ("b", kpair.b)):
        values = np.array([float(f(x)) for x in xs])
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


def _draw_layer(ts: TimeScale, grid: AlphaGrid, n: int, family: str, radius: float,
                rng: np.random.Generator, samples: int, states: int):
    """A check's draws: per sample a point of ``ts``, then ``states`` states with
    distance to zero uniform in (0, radius).  Returns the ``(samples,)`` points
    and one stack of the states, in the order drawn."""
    t, targets, nodes = [], [], []
    for _ in range(samples):
        t.append(float(ts.points[rng.integers(0, len(ts))]))
        for _ in range(states):
            targets.append(float(rng.uniform(0.0, radius)))
            nodes.append(_draw(rng, grid, n, family))
    return np.array(t), FuzzyVector.from_arrays(grid, *_cuts(grid, nodes, targets))


def _first_min(values: np.ndarray) -> float:
    """min() from inf over the values: NaNs never win; of equal minima, the first."""
    kept = values[~np.isnan(values)]
    return float(kept[np.argmin(kept)]) if kept.size else math.inf


# V, a and b on arrays overflow as silently as on one sample's floats
@np.errstate(over="ignore", invalid="ignore")
def _check_sandwich(V: LyapunovFn, kpair: ClassKPair, ts: TimeScale, grid: AlphaGrid,
                    n: int, family: str, radius: float, rng: np.random.Generator,
                    samples: int, tol: float) -> dict:
    t, u = _draw_layer(ts, grid, n, family, radius, rng, samples, 1)
    d = fuzzy.norm(u)
    v = np.broadcast_to(V(t, u), d.shape)  # one V for every sample may be a float
    low_margin = v - kpair.b(d)
    high_margin = kpair.a(d) - v
    bad = np.flatnonzero((low_margin < -tol) | (high_margin < -tol))
    return {
        "passed": not bad.size,
        "samples": samples,
        "worst_lower_margin": _first_min(low_margin),
        "worst_upper_margin": _first_min(high_margin),
        "violations": [[float(t[i]), float(d[i]), float(v[i])] for i in bad[:10].tolist()],
    }


@np.errstate(over="ignore", invalid="ignore")
def _check_lipschitz(V: LyapunovFn, ts: TimeScale, grid: AlphaGrid, n: int,
                     family: str, radius: float, rng: np.random.Generator,
                     samples: int) -> dict:
    t, pairs = _draw_layer(ts, grid, n, family, radius, rng, samples, 2)
    u1, u2 = pairs.take(slice(0, None, 2)), pairs.take(slice(1, None, 2))
    gap = fuzzy.dist(u1, u2)
    rows = np.flatnonzero(gap > 1e-12)  # V is not called on the nearly equal pairs
    estimate = 0.0
    if rows.size:
        t = t[rows]
        ratio = np.abs(V(t, u1.take(rows)) - V(t, u2.take(rows))) / gap[rows]
        estimate = float(np.fmax.reduce(ratio, initial=0.0))  # as max(): NaNs never win
    declared = V.lipschitz
    ok = True if declared is None else estimate <= declared * (1.0 + 1e-9) + 1e-12
    return {
        "passed": bool(ok and math.isfinite(estimate)),
        "estimated_constant": estimate,
        "declared_constant": declared,
        "samples": samples,
    }


# V, g and psi on arrays overflow as silently as on one sample's floats
@np.errstate(over="ignore", invalid="ignore")
def _check_condition_ii(V: LyapunovFn, comp: ScalarHybridSystem,
                        stacks: Sequence[tuple[str, list[int], FuzzyTrajectory]],
                        tol: float) -> dict:
    """Differential inequality along each sampled trajectory (on comp's time
    scale); V, g and psi get one ``(S,)`` array per point of a mode's stack."""
    worst = math.inf
    violations = []
    checked = 0
    for mode, sample_ids, traj in stacks:
        times = traj.times.tolist()
        if not sample_ids or len(times) < 2:
            continue
        # V at every point, once; the Dini estimate looks its rows up by time.
        v = np.empty((len(times), len(sample_ids)))
        for i, (t, u) in enumerate(zip(times, traj.values)):
            v[i] = V(t, u)
        v_at = dict(zip(times, v))
        held = {}  # segment k -> psi_k(V at its switch time)
        lhs, rhs = np.empty((2, len(times) - 1, len(sample_ids)))
        for i, (t, k) in enumerate(zip(times[:-1], comp.schedule.segments.tolist())):
            if k not in held:
                tk = comp.switch_times[k]
                # a switch time matches its stored point only up to lookup noise
                held[k] = comp.psi[k](v_at[tk] if tk in v_at else V(tk, traj.value_at(tk)))
            lhs[i] = traj.ts.upper_dini(v_at.__getitem__, t, horizon=traj.horizon)
            rhs[i] = comp.g(t, v[i], held[k])
        margin = (rhs - lhs).T  # (samples, points), in listing order
        worst = min(worst, _first_min(margin))
        checked += margin.size
        bad = np.argwhere(margin < -tol)[: 10 - len(violations)].tolist()
        violations += [[times[i], float(lhs[i, j]), float(rhs[i, j]), mode, sample_ids[j]]
                       for j, i in bad]
    return {
        "passed": not violations,
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

def _simulate_direct(sys: HybridFuzzySystem, q: StabilityQuery, horizon: float,
                     modes: tuple[StepMode, ...]):
    """One stacked solution per mode of every direct-route initial state.

    Sample id -1 is the deterministic boundary probe; nonnegative ids are
    seeded Monte-Carlo draws with premise distance uniform in (0, lambda).
    A shrunken interior copy of the probe rides along as the batch's last
    row and is never a sample.  Returns (mode, surviving sample ids, stacked
    trajectory) per mode, the skipped samples (contractive failures are
    recorded and skipped, not treated as verdicts) and, per mode, the
    shrunken copy's distance to zero at every point, or None when its solve
    failed.
    """
    grid = sys.u0.grid
    n = sys.u0.n
    plan = q.sampling
    probe = boundary_probe(grid, n, plan.family, q.lam)
    targets, nodes = [], []
    for i in range(plan.count):
        rng = np.random.default_rng([plan.seed, i])
        target = float(rng.uniform(0.0, q.lam))
        while target <= 0.0:
            target = float(rng.uniform(0.0, q.lam))
        targets.append(target)
        nodes.append(_draw(rng, grid, n, plan.family))
    lower, upper = _cuts(grid, nodes, targets)
    shrunk = fuzzy.scale(1.0 - 1e-9, probe)
    shrunk_row = plan.count + 1
    batch = FuzzyVector.from_arrays(grid, np.concatenate(([probe.lower], lower, [shrunk.lower])),
                                    np.concatenate(([probe.upper], upper, [shrunk.upper])))
    sample_ids = np.arange(-1, plan.count)
    try:
        system = sys.replace(u0=batch)
    except InvalidShapeError as exc:
        distance = fuzzy.norm(batch)
        first = int(np.argmax(distance >= sys.rho))
        raise ConfigError(
            f"sampled initial state (distance {distance[first]:g}) lies "
            f"outside the validity ball of radius {sys.rho:g}") from exc

    stacks = []
    skipped = []
    shrunk_distance = []
    for mode in modes:
        traj = hybrid.solve(system, mode=mode, horizon=horizon)
        inner = None
        if traj.failures.pop(shrunk_row, None) is None:  # it reached the horizon: strip its row
            inner = np.array([fuzzy.norm(v.take(-1)) for v in traj.values])
            traj = traj.replace(values=[v.take(slice(-1)) for v in traj.values],
                                rows=traj.rows[:-1])
        skipped += [{"mode": mode.value, "sample": int(sample_ids[row]), "t": traj.failures[row].t}
                    for row in sorted(traj.failures)]
        stacks.append((mode.value, sample_ids[traj.rows].tolist(), traj))
        shrunk_distance.append(inner)
    return stacks, skipped, shrunk_distance


def _direct_route(sys: HybridFuzzySystem, q: StabilityQuery, horizon: float,
                  modes: tuple[StepMode, ...]):
    """Monte-Carlo test of the practical-stability definitions."""
    stacks, skipped, shrunk_distance = _simulate_direct(sys, q, horizon, modes)
    t0 = float(sys.ts.points[0])
    # property -> (sort key, value, bound, u0) of its earliest exceedance;
    # a Witness is built only for the ones reported
    earliest: dict[str, tuple] = {}
    probe_grazes = []

    for (mode, sample_ids, stack), inner in zip(stacks, shrunk_distance):
        times = stack.times.tolist()
        distance = np.array([fuzzy.norm(v) for v in stack.values])  # (points, samples)
        everywhere = np.ones(len(times), dtype=bool)
        tail = (stack.times >= t0 + q.T0) if q.T0 is not None else ~everywhere
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
                    earliest[prop] = (key, float(distance[i, j]), bound, stack.values[0].take(j))
        probe_grazes += [{"property": bounds[p][0], "mode": mode, "t": times[i],
                          "value": float(distance[i, 0])} for i, p in np.argwhere(grazes)]

    # no surviving trajectory means nothing was tested, never "holds"
    stable_testable = any(sample_ids for _, sample_ids, _ in stacks)
    quasi_testable = stable_testable and q.B is not None and q.T0 is not None

    def outcome(testable, *props):
        """Status of a property that fails with any of ``props``, carrying
        the earliest witness among them."""
        if not testable:
            return {"status": NOT_TESTED, "witness": None}
        found = [earliest[p] for p in props if p in earliest]
        if found:
            (t, sample_id, mode, prop), value, bound, u0 = min(found, key=lambda f: f[0])
            witness = Witness(prop, t, value, bound, mode, sample_id, u0)
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
    plan = q.sampling

    seq = np.random.SeedSequence(plan.seed)
    rng_sandwich, rng_lipschitz = [np.random.default_rng(s) for s in seq.spawn(2)]

    # Layer 1: hypothesis checks.
    xmax = max(q.A, q.lam, q.B or 0.0, 1.0) * 1.5
    class_k = _validate_class_k(kpair, xmax)
    a_lam = float(kpair.a(q.lam))
    b_A = float(kpair.b(q.A))
    gate = {"a_lambda": a_lam, "b_A": b_A, "passed": a_lam < b_A}
    sandwich = _check_sandwich(V, kpair, sys.ts, grid, n, plan.family,
                               radius=q.A, rng=rng_sandwich,
                               samples=HYPOTHESIS_SAMPLES, tol=HYPOTHESIS_TOL)
    lipschitz = _check_lipschitz(V, sys.ts, grid, n, plan.family,
                                 radius=min(q.rho, 2.0 * q.A), rng=rng_lipschitz,
                                 samples=HYPOTHESIS_SAMPLES)
    monotonicity = check_monotonicity_hypothesis(
        comp, samples=HYPOTHESIS_SAMPLES, seed=plan.seed,
        box=(0.0, max(1.0, 2.0 * b_A)))

    # Layer 3 runs first so its trajectories can feed the condition (ii) check.
    outcomes, stacks, skipped, grazes = _direct_route(sys, q, horizon, modes)
    cond_ii = _check_condition_ii(V, comp, stacks, HYPOTHESIS_TOL)

    hypothesis_report = {
        "class_k": class_k,
        "gate_a_lambda_lt_b_A": gate,
        "sandwich": sandwich,
        "lipschitz": lipschitz,
        "monotonicity": monotonicity.to_dict(),
        "condition_ii": cond_ii,
    }
    hyp_passed = (class_k["passed"] and gate["passed"] and sandwich["passed"]
                  and lipschitz["passed"] and monotonicity.passed and cond_ii["passed"])
    hypothesis_report["all_passed"] = hyp_passed

    # Layer 2: comparison route.
    comparison_verdict = _comparison_route(comp, kpair, q, horizon)

    implied = {}
    for prop in PROPERTIES:
        if not hyp_passed:
            implied[prop] = NOT_TESTED + " (hypotheses not established on samples)"
        elif comparison_verdict[prop] == HOLDS:
            implied[prop] = HOLDS + " (transferred from the comparison system)"
        elif comparison_verdict[prop] == VIOLATED:
            implied[prop] = "no conclusion (comparison system not stable on the grid)"
        else:
            implied[prop] = NOT_TESTED

    inconsistencies = []
    for prop in PROPERTIES:
        if (hyp_passed and comparison_verdict[prop] == HOLDS
                and outcomes[prop]["status"] == VIOLATED):
            inconsistencies.append({
                "property": prop,
                "witness": outcomes[prop]["witness"],
            })
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
        "sampling": {"count": plan.count, "seed": plan.seed, "family": plan.family},
        "trajectories": sum(len(sample_ids) for _, sample_ids, _ in stacks),
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
