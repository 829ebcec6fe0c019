"""Independent oracles used to compute expected values.

Everything here is deliberately brute force (sampling, enumeration, plain
float recursions) and never calls the code paths it is used to check.
"""

from __future__ import annotations

import bisect
import math

import numpy as np

from fuzzyts import fuzzy
from fuzzyts.dsl import (
    BinOp, Call, CircMinus, Env, EvalError, FAdd, FuzzyExpr, FuzzyLit, FuzzyVar, GHSub, Neg, Num,
    ScalarExpr, SMul, Var, VAR_ALIASES,
)
from fuzzyts.comparison import MonotonicityReport
from fuzzyts.errors import FuzzyTSError, NoSuccessorError, UnknownPointError
from fuzzyts.fuzzy import FuzzyNumber, FuzzyVector
from fuzzyts.stability import sample_initial_state


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


def eval_scalar(e: ScalarExpr, env: Env) -> float | np.ndarray:
    """Evaluate with float or array variables; arrays act element by element,
    each element as its float evaluation (min and max as the builtins, pow as
    math.pow), and an error in any element raises EvalError at that node."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        return env_scalar(env, e.name, e.span)
    if isinstance(e, Neg):
        return -eval_scalar(e.operand, env)
    if isinstance(e, BinOp):
        a = eval_scalar(e.left, env)
        b = eval_scalar(e.right, env)
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
            t = eval_scalar(e.args[0], env)
            try:
                if e.func == "sigma":
                    return ts.sigma(t)
                mu = ts.mu(t)
            except (NoSuccessorError, UnknownPointError) as exc:
                raise EvalError(str(exc), e.span) from exc
            return mu if e.func == "mu" else 1.0 / (1.0 + mu)
        args = [eval_scalar(a, env) for a in e.args]
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


def eval_fuzzy(e: FuzzyExpr, env: Env) -> FuzzyNumber | FuzzyVector:
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
        args = [eval_scalar(a, env) for a in e.args]
        try:
            if e.kind == "tri":
                return fuzzy.make_triangle(args[0], args[1], args[2], env.grid)
            if e.kind == "trap":
                return fuzzy.make_trapezoid(args[0], args[1], args[2], args[3], env.grid)
            return fuzzy.crisp(args[0], env.grid)
        except FuzzyTSError as exc:
            raise EvalError(str(exc), e.span) from exc
    if isinstance(e, FAdd):
        return fuzzy.add(eval_fuzzy(e.left, env), eval_fuzzy(e.right, env))
    if isinstance(e, SMul):
        return fuzzy.scale(eval_scalar(e.scalar, env), eval_fuzzy(e.operand, env))
    if isinstance(e, GHSub):
        return fuzzy.gh_difference(eval_fuzzy(e.left, env), eval_fuzzy(e.right, env))
    if isinstance(e, CircMinus):
        ts = env_timescale(env, e.span)
        t = env_scalar(env, "t", e.span)
        try:
            mu = ts.mu(t)
        except (NoSuccessorError, UnknownPointError) as exc:
            raise EvalError(str(exc), e.span) from exc
        return fuzzy.scale(-1.0 / (1.0 + mu), eval_fuzzy(e.operand, env))
    raise TypeError(f"not a fuzzy expression: {e!r}")


# -- the hypothesis checks one draw at a time ----------------------------------
# The sandwich, Lipschitz and monotonicity checks as they were before they drew
# into arrays: the same draws, with V, a, b, g and psi called on one draw's
# floats and state.  The stacked checks must match them bit for bit.  The
# draws come from sample_initial_state, which the sampler tests pin to
# make_trapezoid numbers rescaled by the kernels.

def check_sandwich(V, kpair, ts, grid, n, family, radius, rng, samples, tol):
    violations = []
    worst_low = math.inf
    worst_high = math.inf
    for _ in range(samples):
        t = float(ts.points[rng.integers(0, len(ts))])
        target = float(rng.uniform(0.0, radius))
        u = sample_initial_state(rng, grid, n, family, target)
        d = fuzzy.norm(u)
        v = V(t, u)
        low_margin = v - float(kpair.b(d))
        high_margin = float(kpair.a(d)) - v
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


def check_lipschitz(V, ts, grid, n, family, radius, rng, samples):
    estimate = 0.0
    for _ in range(samples):
        t = float(ts.points[rng.integers(0, len(ts))])
        u1 = sample_initial_state(rng, grid, n, family, float(rng.uniform(0.0, radius)))
        u2 = sample_initial_state(rng, grid, n, family, float(rng.uniform(0.0, radius)))
        gap = fuzzy.dist(u1, u2)
        if gap <= 1e-12:
            continue
        estimate = max(estimate, abs(V(t, u1) - V(t, u2)) / gap)
    declared = V.lipschitz
    ok = True if declared is None else estimate <= declared * (1.0 + 1e-9) + 1e-12
    return {
        "passed": bool(ok and math.isfinite(estimate)),
        "estimated_constant": estimate,
        "declared_constant": declared,
        "samples": samples,
    }


def check_monotonicity(sys, samples=200, seed=0, box=(0.0, 10.0), tol=1e-9):
    rng = np.random.default_rng(seed)
    ts = sys.ts
    lo, hi = box
    kappa = ts.kappa_points()
    g_mu_r, g_v, psi_bad = [], [], []
    for _ in range(samples):
        t = float(kappa[rng.integers(0, len(kappa))])
        mu = ts.mu(t)
        r1, r2 = sorted(rng.uniform(lo, hi, size=2))
        v1, v2 = sorted(rng.uniform(lo, hi, size=2))
        v = float(rng.uniform(lo, hi))
        r = float(rng.uniform(lo, hi))
        left = sys.g(t, r1, v) * mu + r1
        right = sys.g(t, r2, v) * mu + r2
        if right < left - tol:
            g_mu_r.append((t, r1, r2, right - left))
        gv1, gv2 = sys.g(t, r, v1), sys.g(t, r, v2)
        if gv2 < gv1 - tol:
            g_v.append((t, v1, v2, gv2 - gv1))
    for k, psi in enumerate(sys.psi):
        for _ in range(max(8, samples // max(1, len(sys.psi)))):
            v1, v2 = sorted(rng.uniform(lo, hi, size=2))
            if psi(v2) < psi(v1) - tol:
                psi_bad.append((k, v1, v2))
    return MonotonicityReport(samples, seed, box, g_mu_r, g_v, psi_bad)
