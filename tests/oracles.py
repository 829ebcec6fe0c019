"""Independent oracles used to compute expected values.

Everything here is deliberately brute force (sampling, enumeration, plain
float recursions) and never calls the code paths it is used to check.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from fuzzyts import fuzzy
from fuzzyts.dsl import (
    BinOp, Call, CircMinus, EvalError, FAdd, FuzzyExpr, FuzzyLit, FuzzyVar, GHSub, Neg, Num,
    ScalarExpr, SMul, Var, VAR_ALIASES,
)
from fuzzyts.errors import ConfigError, FuzzyTSError, NoSuccessorError, UnknownPointError
from fuzzyts.fuzzy import FuzzyNumber, FuzzyVector
from fuzzyts.stability import MAX_SAMPLE_ATTEMPTS


# -- interval arithmetic by point sampling ----------------------------------

def interval_sum(a, b, n=33):
    """Minkowski sum of two intervals via the sampled sum set."""
    pts = np.linspace(a[0], a[1], n)[:, None] + np.linspace(b[0], b[1], n)[None, :]
    return float(pts.min()), float(pts.max())


def interval_scale(k, a, n=65):
    pts = k * np.linspace(a[0], a[1], n)
    return float(pts.min()), float(pts.max())


def hausdorff_sampled(a, b, n=801):
    """Hausdorff distance by direct sup-inf evaluation on sampled points."""
    pa = np.linspace(a[0], a[1], n)
    pb = np.linspace(b[0], b[1], n)
    gaps = np.abs(pa[:, None] - pb[None, :])
    return float(max(gaps.min(axis=1).max(), gaps.min(axis=0).max()))


def trapezoid_cut(a, b, c, d, alpha):
    """Hand interpolation of a trapezoid's alpha cut."""
    return a + alpha * (b - a), d - alpha * (d - c)


# -- stacks -------------------------------------------------------------------

def stack(states):
    """One ``(S, n, m)`` stack of single states of one grid and shape, built
    through the public ``FuzzyVector.from_arrays``."""
    states = list(states)
    return FuzzyVector.from_arrays(states[0].grid, np.stack([s.lower for s in states]),
                                   np.stack([s.upper for s in states]))


# -- nested-cut random generators --------------------------------------------

def random_cuts(rng, m, span=5.0):
    """Random valid (lower, upper) endpoint arrays for m alpha levels."""
    core_lo = rng.uniform(-span, span)
    core_hi = core_lo + rng.uniform(0.0, span)
    down = rng.uniform(0.0, 1.0, m - 1)
    up = rng.uniform(0.0, 1.0, m - 1)
    lower = core_lo - np.concatenate([np.cumsum(down[::-1])[::-1], [0.0]])
    upper = core_hi + np.concatenate([np.cumsum(up[::-1])[::-1], [0.0]])
    return lower, upper


def tightened_cuts(lower, upper):
    """Endpoint arrays made ordered and nested exactly, row by row along the
    last axis: each lower endpoint the largest at or below its level, each
    upper one the smallest, and no lower one above the core's upper one."""
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    m = lower.shape[-1]
    lo, up = [], []
    for row_lo, row_up in zip(lower.reshape(-1, m).tolist(), upper.reshape(-1, m).tolist()):
        up.append([min(row_up[:i + 1]) for i in range(m)])
        lo.append([min(max(row_lo[:i + 1]), up[-1][-1]) for i in range(m)])
    return np.reshape(lo, lower.shape), np.reshape(up, upper.shape)


# -- plain float recursions ---------------------------------------------------

def segment_index(switch_times, t):
    return max(bisect.bisect_right(switch_times, t) - 1, 0)


def hybrid_euler_crisp(points, switch_times, f, lam_maps, x0):
    """Real-valued Euler recursion with per-segment frozen switch values.

    f(t, x, lam) and lam_maps[k](t_k, x_k) are plain float functions.
    """
    xs = [float(x0)]
    seg = -1
    lam = None
    for i in range(len(points) - 1):
        t = float(points[i])
        k = segment_index(switch_times, t)
        if k != seg:
            seg = k
            lam = lam_maps[k](switch_times[k], xs[i])
        mu = float(points[i + 1]) - t
        xs.append(xs[i] + mu * f(t, xs[i], lam))
    return xs


def comparison_euler(points, switch_times, g, psi_list, r0):
    """Scalar comparison recursion with frozen psi_k(r_k)."""
    rs = [float(r0)]
    seg = -1
    frozen = None
    for i in range(len(points) - 1):
        t = float(points[i])
        k = segment_index(switch_times, t)
        if k != seg:
            seg = k
            frozen = psi_list[k](rs[i])
        mu = float(points[i + 1]) - t
        rs.append(rs[i] + mu * g(t, rs[i], frozen))
    return rs


def contraction_sequence(x0, steps):
    """x(t+1) = x(t)/2 closed form."""
    return [x0 * 0.5 ** t for t in range(steps + 1)]


def companion_sequence(r0, steps):
    """r(t+1) = 1.5 r(t) + 0.5 r0 (the first-segment companion recursion)."""
    rs = [r0]
    for _ in range(steps):
        rs.append(1.5 * rs[-1] + 0.5 * r0)
    return rs


def expansive_width_sequence(w0, steps):
    """Support width under u(t+1) = u(t) + (-1/2) u(t): grows by 1.5 each step."""
    return [w0 * 1.5 ** t for t in range(steps + 1)]


# -- linear systems in the endpoint embedding ----------------------------------
# A fuzzy number is its (lower, upper) endpoint arrays, and c * x maps them by
# c * I for c >= 0 and by c * J for c < 0, where J swaps the two.  So a
# right-hand side made of smul, fadd, circminus and crisp constants is, per
# alpha level, an affine map of (lower, upper) known before the run, and the
# march below applies it in exact rational arithmetic.

def endpoint_map(coefs, mu):
    """(p, q) such that the fuzzy sum of c(mu) * x over ``coefs`` maps x's
    (lower, upper) by p * I + q * J."""
    cs = [c(mu) for c in coefs]
    return sum(c for c in cs if c >= 0), sum(c for c in cs if c < 0)


def cut_gap(lower, upper):
    """The most an endpoint moves when the cuts are made ordered and nested:
    each upper endpoint lowered to the smallest at or below its level, each
    lower one raised to the largest, then lowered to the core's upper end.
    Zero exactly when the cuts are those of a fuzzy number."""
    gap, up_min, low_max = 0, upper[0], lower[0]
    for up in upper:
        up_min = min(up_min, up)
        gap = max(gap, up - up_min)
    for lo in lower:
        low_max = max(low_max, lo)
        gap = max(gap, abs(min(low_max, up_min) - lo))
    return gap


def linear_march(points, switches, u_coefs, lam_coefs, const, lam0, hold_state, states,
                 contractive, last):
    """Exact march of a linear hybrid system to the point index ``last``.

    The right-hand side is f = sum_j a_j u (+) sum_j b_j lam (+) crisp(const),
    with ``u_coefs``/``lam_coefs`` the a_j and b_j as functions of mu (a
    Fraction).  lam is held from each segment's first point (``switches``
    are their indices): ``lam0``, one fuzzy number's (lower, upper) given to
    every component, on segment 0, and on later segments the state there if
    ``hold_state``, else ``lam0``.  An expansive step is u + mu f; a
    contractive one solves u = next + (-mu) f, the H difference
    (lower + mu f_upper, upper + mu f_lower).

    ``states`` holds per sample, per component, the (lower, upper) floats of
    the initial state.  Returns the segment of every point, per point the
    samples' states (per component (lower, upper) lists of Fractions), and
    per sample, per step, the ``cut_gap`` of the state it yields.
    """
    points = [Fraction(t) for t in points]
    x = [[([Fraction(v) for v in lo], [Fraction(v) for v in up]) for lo, up in comps]
         for comps in states]
    values, gaps, segments = [x], [[] for _ in states], []
    lam = None
    for i in range(last + 1):
        segments.append(bisect.bisect_right(switches, i) - 1)
        if i == last:
            break
        if i in switches:
            lam = [[lam0] * len(comps) if i == 0 or not hold_state else comps for comps in x]
        mu = points[i + 1] - points[i]
        (ap, aq), (bp, bq) = endpoint_map(u_coefs, mu), endpoint_map(lam_coefs, mu)
        nxt = []
        for s, (comps, held) in enumerate(zip(x, lam)):
            sample = []
            for (lo, up), (lam_lo, lam_up) in zip(comps, held):
                cuts = list(zip(lo, up, lam_lo, lam_up))
                f_lo = [ap * xl + aq * xu + bp * ll + bq * lu + const for xl, xu, ll, lu in cuts]
                f_up = [aq * xl + ap * xu + bq * ll + bp * lu + const for xl, xu, ll, lu in cuts]
                if contractive:
                    f_lo, f_up = f_up, f_lo
                sample.append(([v + mu * d for v, d in zip(lo, f_lo)],
                               [v + mu * d for v, d in zip(up, f_up)]))
            gaps[s].append(max(cut_gap(lo, up) for lo, up in sample))
            nxt.append(sample)
        x = nxt
        values.append(x)
    return segments, values, gaps


# -- gH round trip at the endpoint level -------------------------------------

def gh_roundtrip_ok(u_records, v_records, w_records, atol=1e-12):
    """Level-wise: u = v + w or v = u + (-1)w, mixing across levels allowed.

    Arguments are (alpha, lower, upper) record lists.
    """
    for (_, ul, uu), (_, vl, vu), (_, wl, wu) in zip(u_records, v_records, w_records):
        first = abs(vl + wl - ul) <= atol and abs(vu + wu - uu) <= atol
        # (-1) * w has endpoints (-wu, -wl)
        second = abs(ul - wu - vl) <= atol and abs(uu - wl - vu) <= atol
        if not (first or second):
            return False
    return True


# -- the DSL as a tree walk ----------------------------------------------------
# The evaluator the DSL had before it was compiled to closures: the reference
# that the compiled closures must match bit for bit, error for error.

def eval_scalar(e: ScalarExpr, scalars=None, fuzzies=None, ts=None, grid=None):
    """``dsl.eval_scalar`` as a tree walk over ``e``, with the same parameters."""
    return _scalar(e, SimpleNamespace(scalars=scalars or {}, fuzzies=fuzzies or {}, ts=ts,
                                      grid=grid))


def eval_fuzzy(e: FuzzyExpr, scalars=None, fuzzies=None, ts=None, grid=None):
    """``dsl.eval_fuzzy`` as a tree walk over ``e``, with the same parameters."""
    return _fuzzy(e, SimpleNamespace(scalars=scalars or {}, fuzzies=fuzzies or {}, ts=ts,
                                     grid=grid))


def env_scalar(env, name, span):
    if name in env.scalars:
        return env.scalars[name]
    alias = VAR_ALIASES.get(name)
    if alias is not None and alias in env.scalars:
        return env.scalars[alias]
    raise EvalError(f"unbound variable {name!r}", span)


def env_fuzzy(env, name, span):
    if name in env.fuzzies:
        return env.fuzzies[name]
    raise EvalError(f"unbound fuzzy variable {name!r}", span)


def env_timescale(env, span):
    if env.ts is None:
        raise EvalError("no time-scale context for mu/sigma/eta", span)
    return env.ts


_MATH_POW = np.frompyfunc(math.pow, 2, 1)  # math.pow on every element


def _scalar(e: ScalarExpr, env: SimpleNamespace) -> float | np.ndarray:
    """Evaluate with float or array variables; arrays act element by element,
    each element as its float evaluation (min and max as the builtins, pow as
    math.pow), and an error in any element raises EvalError at that node."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env_scalar(env, e.name, e.span)
    if isinstance(e, Neg):
        return -_scalar(e.operand, env)
    if isinstance(e, BinOp):
        a = _scalar(e.left, env)
        b = _scalar(e.right, env)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if np.any(b == 0.0):
            raise EvalError("division by zero", e.span)
        return a / b
    if isinstance(e, Call):
        if e.func in ("mu", "sigma", "eta"):
            ts = env_timescale(env, e.span)
            t = _scalar(e.args[0], env)
            try:
                if e.func == "sigma":
                    return ts.sigma(t)
                mu = ts.mu(t)
            except (NoSuccessorError, UnknownPointError) as exc:
                raise EvalError(str(exc), e.span) from exc
            return mu if e.func == "mu" else 1.0 / (1.0 + mu)
        args = [_scalar(a, env) for a in e.args]
        if e.func == "abs":
            return abs(args[0])
        # min(a, b) is b if b < a else a, and max(a, b) is b if b > a else a
        if e.func == "min":
            return np.where(args[1] < args[0], args[1], args[0])[()]
        if e.func == "max":
            return np.where(args[1] > args[0], args[1], args[0])[()]
        if e.func == "pow":
            try:
                return np.asarray(_MATH_POW(*args), dtype=float)[()]
            except (ValueError, OverflowError) as exc:
                raise EvalError(f"pow({args[0]}, {args[1]}) failed: {exc}", e.span) from exc
    raise TypeError(f"not a scalar expression: {e!r}")


def _fuzzy(e: FuzzyExpr, env: SimpleNamespace) -> FuzzyNumber | FuzzyVector:
    """Evaluate a fuzzy expression.

    Operations act component-wise, so with vectors bound the result is a
    vector; literals are fuzzy numbers and act on every component.

    A non-existent generalized Hukuhara difference inside ghsub propagates
    as GHDifferenceError so callers can branch on it.
    """
    if isinstance(e, FuzzyVar):
        return env_fuzzy(env, e.name, e.span)
    if isinstance(e, FuzzyLit):
        if env.grid is None:
            raise EvalError("no alpha grid in scope for a fuzzy literal", e.span)
        args = [_scalar(a, env) for a in e.args]
        try:
            if e.kind == "tri":
                return fuzzy.make_triangle(args[0], args[1], args[2], env.grid)
            if e.kind == "trap":
                return fuzzy.make_trapezoid(args[0], args[1], args[2], args[3], env.grid)
            return fuzzy.crisp(args[0], env.grid)
        except FuzzyTSError as exc:
            raise EvalError(str(exc), e.span) from exc
    if isinstance(e, FAdd):
        return fuzzy.add(_fuzzy(e.left, env), _fuzzy(e.right, env))
    if isinstance(e, SMul):
        return fuzzy.scale(_scalar(e.scalar, env), _fuzzy(e.operand, env))
    if isinstance(e, GHSub):
        return fuzzy.gh_difference(_fuzzy(e.left, env), _fuzzy(e.right, env))
    if isinstance(e, CircMinus):
        ts = env_timescale(env, e.span)
        t = env_scalar(env, "t", e.span)
        try:
            mu = ts.mu(t)
        except (NoSuccessorError, UnknownPointError) as exc:
            raise EvalError(str(exc), e.span) from exc
        return fuzzy.scale(-1.0 / (1.0 + mu), _fuzzy(e.operand, env))
    raise TypeError(f"not a fuzzy expression: {e!r}")


# -- the draw stream one value at a time ---------------------------------------
# SplitMix64 as Vigna's splitmix64.c writes it, in Python ints: each output
# adds GAMMA to the state and mixes the sum.

M64 = 2 ** 64 - 1
GAMMA = 0x9E3779B97F4A7C15


def splitmix64_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & M64
    return z ^ (z >> 31)


class SplitMix64:
    def __init__(self, state):
        self.state = state & M64

    def next(self):
        self.state = (self.state + GAMMA) & M64
        return splitmix64_mix(self.state)


class Stream(SplitMix64):
    """Stream ``(seed, layer)`` of the samplers: SplitMix64 from the state
    mix(mix(seed * GAMMA + layer)), each output's top 53 bits a uniform in
    [0, 1), drawn one value at a time through numpy's Generator methods."""

    def __init__(self, seed, layer):
        super().__init__(splitmix64_mix(splitmix64_mix((seed * GAMMA + layer) & M64)))

    def unit(self):
        return (self.next() >> 11) * 2.0 ** -53

    def random(self, size):
        return np.array([self.unit() for _ in range(int(np.prod(size)))]).reshape(size)

    def integers(self, low, high, size):
        return np.array([low + math.floor(self.unit() * (high - low)) for _ in range(size)],
                        dtype=np.int64)

    def uniform(self, low, high, size=None):
        if size is None:
            return low + (high - low) * self.unit()
        return low + (high - low) * self.random(size)


# -- random states one row at a time ------------------------------------------
# The layers' sampler built the long way: row i of the stream's uniforms is
# drawn on its own and made into one make_trapezoid number per component, a
# vector of them, then a rescale by the kernels.

UNIFORMS = {"crisp": 1, "triangular": 3, "trapezoid": 4}


def state_from_row(row, grid, n, family, radius):
    """The state of one row of uniforms (distance, then per component c, wl,
    wr and half), or None when its distance is 0 or it is nearly zero."""
    target = radius * float(row[0])
    k = UNIFORMS[family]
    comps = []
    for j in range(n):
        x = [float(v) for v in row[1 + j * k: 1 + (j + 1) * k]]
        c = -1.0 + 2.0 * x[0]  # uniform(-1, 1) as numpy computes it
        if family == "crisp":
            comps.append((c, c, c, c))
        elif family == "triangular":
            comps.append((c - x[1], c, c, c + x[2]))
        else:
            half = 0.5 * x[3]
            comps.append((c - half - x[1], c - half, c + half, c + x[2] + half))
    raw = FuzzyVector(tuple(fuzzy.make_trapezoid(*ends, grid) for ends in comps))
    size = fuzzy.norm(raw)
    if target == 0.0 or size <= 1e-9:
        return None
    return fuzzy.scale(target / size, raw)


def sample_states(rng, grid, n, family, radius, count=1):
    """``count`` states with distance to zero uniform in (0, radius): state i
    from the i-th row of the stream, each rejected row drawn again, in order,
    after all of them."""
    width = 1 + n * UNIFORMS[family]
    rows = [rng.random(width) for _ in range(count)]
    states = [None] * count
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        for i, row in enumerate(rows):
            if states[i] is None:
                states[i] = state_from_row(row, grid, n, family, radius)
        pending = [i for i, state in enumerate(states) if state is None]
        if not pending:
            return states
        for i in pending:
            rows[i] = rng.random(width)
    raise ConfigError("nearly-zero")


def drawable_times(ts, horizon):
    """The points up to the horizon that have a successor."""
    return [float(t) for t in ts.points[:-1] if t <= horizon]


# -- the hypothesis checks one draw at a time ----------------------------------
# The sandwich, Lipschitz and monotonicity checks as loops: the same draws,
# with V, a, b, g and psi called on one draw's floats and state.  The stacked
# checks must match them bit for bit.

def check_sandwich(V, kpair, ts, horizon, grid, n, family, radius, rng, samples, tol=1e-9):
    violations = []
    worst_low = math.inf
    worst_high = math.inf
    points = drawable_times(ts, horizon)
    times = [points[i] for i in rng.integers(0, len(points), size=samples)]
    for t, u in zip(times, sample_states(rng, grid, n, family, radius, samples)):
        d = fuzzy.norm(u)
        v, a, b = float(V(t, u)), float(kpair.a(d)), float(kpair.b(d))
        for name, value in (("V", v), ("a", a), ("b", b)):
            if not math.isfinite(value):
                raise ConfigError(f"{name} is not finite at t={float(t)!r}, d={float(d)!r}: "
                                  f"{value!r}")
        low_margin = v - b
        high_margin = a - v
        worst_low = min(worst_low, low_margin)
        worst_high = min(worst_high, high_margin)
        if low_margin < -tol or high_margin < -tol:
            violations.append((t, d, v))
    return {
        "passed": not violations,
        "samples": samples,
        "worst_lower_margin": worst_low,
        "worst_upper_margin": worst_high,
        "violations": [list(v) for v in violations[:10]],
    }


def check_lipschitz(V, ts, horizon, grid, n, family, radius, rng, samples):
    estimate = 0.0
    checked = 0
    points = drawable_times(ts, horizon)
    times = [points[i] for i in rng.integers(0, len(points), size=samples)]
    states = sample_states(rng, grid, n, family, radius, 2 * samples)
    for i, t in enumerate(times):
        u1, u2 = states[2 * i], states[2 * i + 1]
        gap = fuzzy.dist(u1, u2)
        if gap <= 1e-12:
            continue
        checked += 1
        v1, v2 = float(V(t, u1)), float(V(t, u2))
        for value in (v1, v2):
            if not math.isfinite(value):
                raise ConfigError(f"V is not finite at t={float(t)!r}: {value!r}")
        estimate = max(estimate, abs(v1 - v2) / gap)
    declared = V.lipschitz
    ok = True if declared is None else estimate <= declared * (1.0 + 1e-9) + 1e-12
    return {
        "passed": bool(checked and ok and math.isfinite(estimate)),
        "estimated_constant": estimate,
        "declared_constant": declared,
        "samples": samples,
    }


def finite(name, value, **at):
    """``value``, or ConfigError naming ``name`` and its arguments ``at`` if it is not finite."""
    if not math.isfinite(value):
        where = ", ".join(f"{key}={x}" for key, x in at.items())
        raise ConfigError(f"{name} is not finite at {where}: {float(value)!r}")
    return value


def check_monotonicity(sys, samples=200, seed=0, box=(0.0, 10.0), tol=1e-9, horizon=None):
    rng = Stream(seed, 3)
    ts = sys.ts
    lo, hi = box
    end = ts.points[-1] if horizon is None else horizon
    times = [float(t) for t in ts.points if t < end]  # g is used only before the horizon
    g_mu_r, g_v, psi_bad = [], [], []
    for t in [times[i] for i in rng.integers(0, len(times), size=samples)] if times else []:
        mu = ts.mu(t)
        r1, r2 = sorted(rng.uniform(lo, hi, size=2))
        v1, v2 = sorted(rng.uniform(lo, hi, size=2))
        v = float(rng.uniform(lo, hi))
        r = float(rng.uniform(lo, hi))
        g1, g2, gv1, gv2 = (finite("g", sys.g(t, *rv), t=t, r=rv[0], v=rv[1])
                            for rv in ((r1, v), (r2, v), (r, v1), (r, v2)))
        left = g1 * mu + r1
        right = g2 * mu + r2
        if right < left - tol:
            g_mu_r.append([t, r1, r2, right - left])
        if gv2 < gv1 - tol:
            g_v.append([t, v1, v2, gv2 - gv1])
    for k, psi in enumerate(sys.psi):
        for _ in range(max(8, samples // max(1, len(sys.psi)))):
            v1, v2 = sorted(rng.uniform(lo, hi, size=2))
            q1, q2 = (finite("psi", psi(x), k=k, v=x) for x in (v1, v2))
            if q2 < q1 - tol:
                psi_bad.append([k, v1, v2])
    return {"passed": bool(times) and not (g_mu_r or g_v or psi_bad), "samples": samples,
            "seed": seed, "box": list(box), "g_mu_r_violations": g_mu_r,
            "g_v_violations": g_v, "psi_violations": psi_bad}
