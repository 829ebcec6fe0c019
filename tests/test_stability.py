import configparser
import gc
import json
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fuzzyts as f
import oracles
import test_golden
from test_cli import nan_beyond
from fuzzyts import catalog, comparison as cmp, draws, dsl, fuzzy, hybrid, stability
from fuzzyts.cli import RunConfig, build_bundle, build_query, main
from fuzzyts.errors import BlowUpError, ConfigError, FuzzyTSError, StepFailureError
from fuzzyts.hukuhara import FuzzyTrajectory, delta_h_derivative
from fuzzyts.hybrid import StepMode, solve
from fuzzyts.stability import (
    HOLDS,
    MAX_SAMPLE_ATTEMPTS,
    NOT_TESTED,
    VIOLATED,
    ClassKPair,
    LyapunovFn,
    StabilityQuery,
    boundary_probe,
    check_practical_stability,
    comparison_bound,
    norm_lyapunov,
    verify_comparison_bound,
    _check_condition_ii,
    _validate_class_k,
)

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def tri(a, b, c):
    return f.make_triangle(a, b, c, GRID)


# ---------------------------------------------------------------------------
# Dini derivative along solutions
# ---------------------------------------------------------------------------

def test_dini_crisp_contraction_first_step():
    bundle = catalog.make_crisp_contraction(GRID, 8.0, u0=f.vector(f.crisp(1.0, GRID)))
    traj = solve(bundle.system, horizon=8.0)
    V = norm_lyapunov()
    dini = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), 0.0, horizon=traj.horizon)
    assert dini == pytest.approx(-0.5, abs=TOL)


def test_dini_triangular_expansion_first_step():
    bundle = catalog.make_example_3_9(GRID, 8.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=8.0)
    V = norm_lyapunov()
    dini = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), 0.0, horizon=traj.horizon)
    assert dini == pytest.approx(0.5, abs=TOL)


def test_dini_constant_V_is_zero():
    bundle = catalog.make_example_3_9(GRID, 8.0)
    traj = solve(bundle.system, horizon=8.0)
    V = LyapunovFn(lambda t, u: 7.0)
    for t in traj.ts.kappa_points()[:8].tolist():
        dini = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), t, horizon=traj.horizon)
        assert dini == pytest.approx(0.0, abs=TOL)


def test_dini_matches_quotient_oracle_at_scattered_points():
    bundle = catalog.make_example_3_9(GRID, 10.0)
    traj = solve(bundle.system, horizon=10.0)
    V = norm_lyapunov()
    for i in range(len(traj) - 1):
        t = float(traj.ts.points[i])
        mu = traj.ts.mu(t)
        quotient = (V(t + mu, traj.values[i + 1]) - V(t, traj.values[i])) / mu
        dini = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), t, horizon=traj.horizon)
        assert dini == pytest.approx(quotient, abs=TOL)


def test_dini_on_dense_scale_stops_at_trajectory_end():
    ts = f.uniform(0.0, 1e-7, 20)
    xs = [2.0 + np.sin(i) for i in range(16)]  # trajectory ends at point 15
    traj = FuzzyTrajectory(ts, [f.vector(f.crisp(x, GRID)) for x in xs])
    V = norm_lyapunov()
    t = ts.points
    for i in range(8, 15):
        quotients = [(xs[i + 1] - xs[j]) / (t[i + 1] - t[j]) for j in range(i + 2, 16)]
        expected = max(quotients) if quotients else (xs[i + 1] - xs[i]) / (t[i + 1] - t[i])
        dini = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), t[i], horizon=traj.horizon)
        assert dini == pytest.approx(expected, rel=1e-12)


def test_dini_bounded_by_derivative_norm_along_example():
    # chain: the Dini quotient of the distance never exceeds the metric
    # magnitude of the trajectory's derivative (subadditivity of the metric)
    bundle = catalog.make_example_3_9(GRID, 15.0)
    traj = solve(bundle.system, horizon=15.0)
    V = norm_lyapunov()
    for i in range(len(traj) - 1):
        t = float(traj.ts.points[i])
        deriv = delta_h_derivative(traj, t)
        assert deriv is not None
        dini = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), t, horizon=traj.horizon)
        assert dini <= f.norm(deriv) + TOL


# ---------------------------------------------------------------------------
# comparison bound verification
# ---------------------------------------------------------------------------

def test_bound_example_companion():
    bundle = catalog.make_example_3_9(GRID, 10.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=10.0)
    scalar = f.solve_comparison(bundle.comparison, horizon=10.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar)
    assert report["holds"] and report["checked_points"] == 11
    V = bundle.lyapunov
    assert [V(float(t), traj.values[i]) for i, t in enumerate(traj.times[:3])] == \
        pytest.approx([1.0, 1.5, 2.25], abs=TOL)
    assert [float(x) for x in scalar.values[:3]] == pytest.approx([1.0, 2.0, 3.5], abs=TOL)


def test_bound_equality_case_holds_at_tight_tolerance():
    bundle = catalog.make_crisp_contraction(GRID, 10.0, u0=f.vector(f.crisp(1.0, GRID)))
    traj = solve(bundle.system, horizon=10.0)
    scalar = f.solve_comparison(bundle.comparison, horizon=10.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar)
    assert report["holds"]
    assert report["max_excess"] <= TOL  # V and r coincide exactly


def test_bound_precondition_gate():
    bundle = catalog.make_crisp_contraction(GRID, 6.0, u0=f.vector(f.crisp(1.0, GRID)),
                                            r0=0.5)
    traj = solve(bundle.system, horizon=6.0)
    scalar = f.solve_comparison(bundle.comparison, horizon=6.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar)
    assert not report["precondition_ok"] and not report["holds"]
    assert report["checked_points"] == 0


def test_bound_reports_violations():
    bundle = catalog.make_example_3_9(GRID, 8.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=8.0)
    weak = f.ScalarHybridSystem(bundle.comparison.ts, bundle.comparison.switch_times,
                                lambda t, r, v: 0.0,
                                bundle.comparison.psi, 1.0)
    scalar = f.solve_comparison(weak, horizon=8.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar)
    assert report["violations"] and not report["holds"]
    assert report["violations"][0][0] == 1.0  # first exceedance at t = 1


def test_a_nan_V_fails_the_precondition_and_the_bound():
    gate = comparison_bound([0.0, 1.0], [math.nan, 0.5], [1.0, 1.0])
    assert not gate["precondition_ok"] and not gate["holds"] and gate["checked_points"] == 0
    later = comparison_bound([0.0, 1.0, 2.0], [0.5, math.nan, 0.5], [1.0, 1.0, 1.0])
    assert later["precondition_ok"] and not later["holds"]
    assert [t for t, _, _ in later["violations"]] == [1.0]
    assert later["max_excess"] == -0.5  # NaNs never win


# ---------------------------------------------------------------------------
# class-K validation and samplers
# ---------------------------------------------------------------------------

def test_class_k_identity_passes():
    report = _validate_class_k(ClassKPair(lambda x: x, lambda x: x), xmax=3.0)
    assert report["passed"]


def test_class_k_rejects_flat_and_offset():
    flat = _validate_class_k(ClassKPair(lambda x: 1.0, lambda x: x), xmax=3.0)
    assert not flat["passed"] and not flat["a"]["zero_at_zero"]
    offset = _validate_class_k(ClassKPair(lambda x: x, lambda x: 0.0 * x), xmax=3.0)
    assert not offset["passed"] and not offset["b"]["strictly_increasing"]


def sample(rng, n, family, radius, count):
    """The layers' sampler, as one stack."""
    return f.FuzzyVector.from_arrays(GRID, *stability._sample(rng, GRID, n, family, radius, count))


@pytest.mark.parametrize("family", ["crisp", "triangular", "trapezoid"])
def test_sampler_hits_target_distance(family):
    # state i's distance is the radius times the first uniform of row i
    rows = np.random.default_rng(0).random((30, 1 + 2 * oracles.UNIFORMS[family]))
    for radius in (0.1, 0.5, 2.0):
        u = sample(np.random.default_rng(0), 2, family, radius, 30)
        assert f.norm(u) == pytest.approx(radius * rows[:, 0], rel=1e-9)
        if family == "crisp":
            assert np.array_equal(u.lower, u.upper)


@pytest.mark.parametrize("family", ["crisp", "triangular", "trapezoid"])
def test_sampler_equals_per_component_trapezoids(family):
    for seed in range(25):
        for n in (1, 3):
            radius = 0.05 + 0.1 * seed
            got = sample(np.random.default_rng(seed), n, family, radius, 4)
            want = oracles.stack(
                oracles.sample_states(np.random.default_rng(seed), GRID, n, family, radius, 4))
            assert got.lower.tobytes() == want.lower.tobytes()
            assert got.upper.tobytes() == want.upper.tobytes()


def test_sampler_is_deterministic_under_seed():
    a = sample(np.random.default_rng(42), 1, "triangular", 0.7, 5)
    b = sample(np.random.default_rng(42), 1, "triangular", 0.7, 5)
    assert np.array_equal(f.dist(a, b), np.zeros(5))


def test_direct_route_states_keep_their_values_whatever_the_sample_count():
    b = catalog.make_example_3_9(GRID, 4.0)

    def initial_states(count):
        q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                           count=count, seed=11, family="trapezoid")
        seen = []
        V = LyapunovFn(lambda t, u: seen.append(u) or f.norm(u))
        [(_, ids, _, _)], _, _, batch = stability._simulate_direct(b.system, V, q, 1.0,
                                                                   (StepMode.EXPANSIVE,))
        assert ids == list(range(-1, count))
        assert seen[0] is batch  # the states the route checks at t0
        return batch.take(slice(1, 51))  # the first 50 samples, after the probe

    few, many = initial_states(50), initial_states(200)
    assert few.lower.tobytes() == many.lower.tobytes()
    assert few.upper.tobytes() == many.upper.tobytes()


class ScriptedRng:
    """Stand-in generator: ``random`` plays back ``values`` in C order, then
    repeats ``rest``; ``rows`` counts the rows drawn."""

    def __init__(self, values=(), rest=0.0):
        self.values = list(values)
        self.rest = rest
        self.rows = 0

    def random(self, size):
        self.rows += size[0]
        flat = [self.values.pop(0) if self.values else self.rest for _ in range(int(np.prod(size)))]
        return np.reshape(flat, size)


def test_sampler_gives_up_on_degenerate_generator():
    # zeros give every row distance 0; halves give crisp zeros (c = 2 * 0.5 - 1)
    for rest in (0.0, 0.5):
        rng = ScriptedRng(rest=rest)
        with pytest.raises(ConfigError, match="nearly-zero"):
            stability._sample(rng, GRID, 2, "crisp", 0.5, 1)
        assert rng.rows == MAX_SAMPLE_ATTEMPTS


def test_sampler_redraws_nearly_zero_states_from_the_same_generator():
    # row 0 is a crisp zero, row 1 a good state; row 0 is redrawn after both
    good, redraw = [0.25, 0.75, 0.125], [0.5, 0.75, 0.25]
    rng = ScriptedRng(values=[0.5, 0.5, 0.5 + 1e-13] + good + redraw, rest=0.9)
    u = sample(rng, 2, "crisp", 2.0, 2)
    assert rng.rows == 3 and not rng.values  # one rejected row, then one more
    for row, values in ((0, redraw), (1, good)):
        alone = sample(ScriptedRng(values), 2, "crisp", 2.0, 1)
        assert u.take(slice(row, row + 1)).lower.tobytes() == alone.lower.tobytes()
    assert [c.crisp_value() for c in u.take(0)] == [1.0, -1.0]


def test_sampler_never_uses_a_distance_of_zero():
    # row 1 draws distance 0 and is redrawn; the other rows keep their values
    rows = [[0.5, 0.75, 0.25], [0.0, 0.75, 0.25], [0.25, 0.1, 0.9], [0.75, 0.6, 0.2]]
    rng = ScriptedRng(values=sum(rows, []))
    u = sample(rng, 2, "crisp", 2.0, 3)
    assert rng.rows == 4
    assert f.norm(u) == pytest.approx([1.0, 1.5, 0.5], rel=1e-12)
    for row, values in ((0, rows[0]), (1, rows[3]), (2, rows[2])):
        alone = sample(ScriptedRng(values), 2, "crisp", 2.0, 1)
        assert u.take(slice(row, row + 1)).lower.tobytes() == alone.lower.tobytes()


def test_boundary_probe_distance():
    assert f.norm(boundary_probe(GRID, 3, "triangular", 1.0)) == pytest.approx(1.0, abs=TOL)
    assert f.norm(boundary_probe(GRID, 1, "crisp", 0.25)) == pytest.approx(0.25, abs=TOL)


def test_query_validation():
    with pytest.raises(ConfigError):
        StabilityQuery(lam=2.0, A=1.0)  # premise radius above the bound
    with pytest.raises(ConfigError):
        StabilityQuery(lam=1.0, A=2.0, rho=0.5)  # premise outside validity ball
    with pytest.raises(ConfigError):
        StabilityQuery(lam=1.0, A=2.0, B=-1.0)
    StabilityQuery(lam=1.0, A=1.0)  # equality is allowed for the direct test


# ---------------------------------------------------------------------------
# the full checker
# ---------------------------------------------------------------------------

def crisp_query(**kw):
    defaults = dict(lam=1.0, A=1.0, B=0.1, T0=4.0, rho=100.0,
                    count=60, seed=21, family="crisp")
    defaults.update(kw)
    return StabilityQuery(**defaults)


def test_crisp_contraction_all_properties_hold():
    b = catalog.make_crisp_contraction(GRID, 10.0)
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        crisp_query(), 10.0)
    assert all(p["status"] == HOLDS for p in verdict.properties.values())
    assert verdict.exit_code() == 0
    assert not verdict.consistency["inconsistent"]
    # lambda = A makes the class-K gate fail, so the transfer is untested
    assert not verdict.hypothesis_report["gate_a_lambda_lt_b_A"]["passed"]
    assert "not-tested" in verdict.implied_conclusions["practically_stable"]


def test_crisp_contraction_with_strict_gate_transfers():
    b = catalog.make_crisp_contraction(GRID, 10.0)
    q = crisp_query(lam=0.5, A=1.0)
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        q, 10.0)
    assert verdict.hypothesis_report["all_passed"]
    assert verdict.comparison_verdict["practically_stable"] == HOLDS
    assert verdict.properties["practically_stable"]["status"] == HOLDS
    assert verdict.implied_conclusions["practically_stable"].startswith(HOLDS)
    assert not verdict.consistency["inconsistent"]
    assert verdict.exit_code() == 0


def test_crisp_contraction_quasi_violation_witnessed():
    b = catalog.make_crisp_contraction(GRID, 10.0)
    q = crisp_query(B=0.01, T0=1.0)  # |u(1)| can be up to 0.5 >= 0.01
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        q, 10.0)
    assert verdict.properties["practically_stable"]["status"] == HOLDS
    assert verdict.properties["quasi_stable"]["status"] == VIOLATED
    assert verdict.properties["strongly_stable"]["status"] == VIOLATED
    w = verdict.properties["quasi_stable"]["witness"]
    assert w["t"] >= 1.0 and w["value"] >= 0.01
    assert verdict.exit_code() == 1


def test_example_expansive_violation_witness_values():
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       count=60, seed=13, family="triangular")
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        q, 10.0, modes=(StepMode.EXPANSIVE,))
    stable = verdict.properties["practically_stable"]
    assert stable["status"] == VIOLATED
    assert stable["witness"]["t"] == pytest.approx(2.0, abs=TOL)
    assert stable["witness"]["value"] == pytest.approx(2.25, abs=TOL)
    assert stable["witness"]["sample"] == -1  # the boundary probe
    # hypotheses hold but the comparison system itself is unstable: no
    # transferred conclusion and no inconsistency
    assert verdict.hypothesis_report["all_passed"]
    assert verdict.comparison_verdict["practically_stable"] == VIOLATED
    assert not verdict.consistency["inconsistent"]
    assert verdict.exit_code() == 1


def test_example_quasi_not_tested_without_B():
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       count=20, seed=13, family="triangular")
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        q, 10.0, modes=(StepMode.EXPANSIVE,))
    assert verdict.properties["quasi_stable"]["status"] == NOT_TESTED
    assert verdict.properties["strongly_stable"]["status"] == NOT_TESTED


def test_probe_graze_is_not_a_violation():
    # the probe sits exactly on the premise boundary; with lam = A its start
    # touches the bound without crossing it and must not produce a witness
    b = catalog.make_crisp_contraction(GRID, 8.0)
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        crisp_query(), 8.0)
    assert verdict.properties["practically_stable"]["status"] == HOLDS
    assert any(g["t"] == 0.0 for g in verdict.metadata["probe_grazes"])


def test_condition_ii_margins_nonnegative_on_example():
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       count=30, seed=3, family="triangular")
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                        q, 10.0, modes=(StepMode.EXPANSIVE,))
    cond = verdict.hypothesis_report["condition_ii"]
    assert cond["passed"] and cond["worst_margin"] >= -1e-9


def test_verdict_determinism():
    b = catalog.make_crisp_contraction(GRID, 10.0)
    kw = dict(horizon=10.0)
    v1 = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair,
                                   crisp_query(), **kw)
    b2 = catalog.make_crisp_contraction(GRID, 10.0)
    v2 = check_practical_stability(b2.system, b2.comparison, b2.lyapunov, b2.kpair,
                                   crisp_query(), **kw)
    assert json.dumps(v1.to_dict(), sort_keys=True) == json.dumps(v2.to_dict(), sort_keys=True)


def test_all_step_failures_means_nothing_tested():
    # a purely widening right-hand side admits no contractive step at all;
    # with only that mode requested the verdict must not claim anything
    ts = f.integer(6)
    wide = f.vector(tri(-1, 0, 1))
    sys = f.HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: wide,
                              (lambda tk, uk: f.zero_vector(GRID),), 100.0,
                              f.vector(f.crisp(0.1, GRID)))
    comp = f.ScalarHybridSystem(ts, (0.0,), lambda t, r, v: 1.0, (lambda v: v,), 1.0)
    q = StabilityQuery(lam=0.5, A=1.0, rho=100.0,
                       count=10, seed=1, family="crisp")
    verdict = check_practical_stability(sys, comp, norm_lyapunov(),
                                        ClassKPair(lambda x: x, lambda x: x),
                                        q, 6.0, modes=(StepMode.CONTRACTIVE,))
    assert all(o["status"] == NOT_TESTED for o in verdict.properties.values())
    assert verdict.exit_code() == 2
    assert verdict.metadata["skipped_step_failures"]


def test_consistency_never_flagged_across_catalog():
    cases = [
        (catalog.make_crisp_contraction(GRID, 10.0),
         crisp_query()),
        (catalog.make_crisp_contraction(GRID, 10.0),
         crisp_query(lam=0.5, A=1.0)),
        (catalog.make_example_3_9(GRID, 10.0),
         StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                        count=40, seed=2, family="triangular")),
        (catalog.make_example_3_9(GRID, 10.0),
         StabilityQuery(lam=0.5, A=3.0, B=4.0, T0=2.0, rho=100.0,
                        count=40, seed=2, family="trapezoid")),
    ]
    for bundle, query in cases:
        verdict = check_practical_stability(bundle.system, bundle.comparison,
                                            bundle.lyapunov, bundle.kpair,
                                            query, 10.0)
        assert not verdict.consistency["inconsistent"]


# ---------------------------------------------------------------------------
# cost guards: deterministic counts of repeated work
# ---------------------------------------------------------------------------

def count_solves(monkeypatch):
    """The calls of ``hybrid.solve``, in a list."""
    calls = []
    real = hybrid.solve
    monkeypatch.setattr(hybrid, "solve", lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def test_probe_is_resolved_at_most_once_per_mode(monkeypatch):
    calls = count_solves(monkeypatch)
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=8, seed=13, family="triangular")
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
    assert verdict.properties["practically_stable"]["witness"]["sample"] == -1
    assert len(calls) <= (q.count + 1) * 2 + 2


@pytest.mark.parametrize("ts", [f.integer(12), f.uniform(0.0, 1e-7, 12)],
                         ids=["scattered", "dense"])
def test_condition_ii_evaluates_V_once_per_point(ts):
    switch_times = (0.0, float(ts.points[5]))
    sys = f.HybridFuzzySystem(ts, switch_times, lambda t, u, lam: f.scale(-0.5, u),
                              (lambda t, u: f.zero_vector(u.grid, u.n), lambda t, u: u), 100.0,
                              f.vector(tri(-1, 0, 1)))
    comp = f.ScalarHybridSystem(ts, switch_times, lambda t, w, wk: -0.5 * w,
                                (lambda v: v, lambda v: v), 1.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=2, seed=1)
    horizon = float(ts.points[10])
    calls = []
    V = LyapunovFn(lambda t, u: calls.append(t) or f.norm(u))
    stacks, skipped, _, _ = stability._simulate_direct(sys, V, q, horizon, tuple(StepMode))
    assert not skipped and len(calls) == 11 * 2  # once per point of each mode's stack
    calls.clear()
    report = _check_condition_ii(comp, stacks)
    assert not calls and report["checked_steps"] == 10 * 3 * 2


def test_the_direct_route_keeps_no_stack_it_has_read():
    # switch maps that return new states: a held switch value that is the
    # state itself would keep that stack for its segment
    ts = f.integer(12)
    switch_times = (0.0, 6.0)
    sys = f.HybridFuzzySystem(ts, switch_times, lambda t, u, lam: f.add(f.scale(-0.5, u), lam),
                              (lambda t, u: f.zero_vector(u.grid, u.n),
                               lambda t, u: f.scale(0.5, u)), 100.0, f.vector(tri(-1, 0, 1)))
    comp = f.ScalarHybridSystem(ts, switch_times, lambda t, w, wk: -0.5 * w + wk,
                                (lambda v: 0.0 * v, lambda v: 0.5 * v), 1.0)
    seen, alive = [], []  # a weakref to every stack V is given; the earlier ones alive per call

    def V(t, u):
        gc.collect()
        alive.append(sum(ref() is not None and ref() is not u.lower for ref in seen))
        seen.append(weakref.ref(u.lower))
        return f.norm(u)

    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=20, seed=8)
    check_practical_stability(sys, comp, LyapunovFn(V), ClassKPair(lambda x: x, lambda x: x),
                              q, 12.0, modes=(StepMode.EXPANSIVE,))
    assert len(alive) == 3 + 13  # the sandwich and Lipschitz checks, then each point once
    # besides the stack V is given: at most the one before it and the initial batch
    assert max(alive) <= 2


def test_condition_ii_calls_g_once_per_point_per_mode(monkeypatch):
    b = catalog.make_example_3_9(f.AlphaGrid.uniform(5), 10.0)
    calls = []
    g = b.comparison.g
    monkeypatch.setattr(b.comparison, "g", lambda *args: calls.append(args) or g(*args))
    counts = []
    for count in (10, 40):
        q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                           count=count, seed=3, family="triangular")
        calls.clear()
        check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_stability_check_solves_each_mode_once(monkeypatch):
    calls = count_solves(monkeypatch)
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       count=8, seed=13, family="triangular")
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
    assert verdict.properties["practically_stable"]["witness"]["sample"] == -1
    assert verdict.metadata["skipped_step_failures"]  # contractive samples failed
    assert len(calls) == 2  # per mode one stack, the shrunken probe included


def test_witnesses_are_built_only_for_reported_properties(monkeypatch):
    built = []
    init = stability.Witness.__init__
    monkeypatch.setattr(stability.Witness, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    stability.Witness("practically_stable", 0.0, 2.0, 1.0, "expansive", 0, None)
    assert len(built) == 1  # the hook sees a direct build
    built.clear()
    b = catalog.make_example_3_9(GRID, 20.0)
    q = StabilityQuery(lam=1.0, A=2.0, B=0.5, T0=5.0, rho=100.0,
                       count=40, seed=5, family="trapezoid")
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 20.0)
    assert all(p["status"] == VIOLATED for p in verdict.properties.values())
    assert len(built) <= 4


def test_catalog_check_builds_a_handful_of_fuzzy_numbers(monkeypatch):
    built = []
    post_init = f.FuzzyNumber.__post_init__
    monkeypatch.setattr(f.FuzzyNumber, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    f.FuzzyNumber(GRID, np.zeros(GRID.m), np.ones(GRID.m))
    assert len(built) == 1  # the hook sees a direct build
    b = catalog.make_example_3_9(GRID, 10.0)
    counts = []
    for count in (10, 40):
        q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                           count=count, seed=3, family="triangular")
        built.clear()
        check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 6


# ---------------------------------------------------------------------------
# the direct route on stacked solves
# ---------------------------------------------------------------------------

def stacked_states_each_sample(sys, mode, horizon, failures):
    """Reference for ``hybrid.stacked_states``: each sample marched on its own
    by ``hybrid.states``, and at each point the stack of the samples whose own
    march got there."""
    paths = []
    for row in range(sys.u0.samples):
        paths.append([])
        try:
            for _, _, u in hybrid.states(sys.replace(u0=sys.u0.take(row)), mode, horizon):
                paths[-1].append(u)
        except StepFailureError as exc:
            failures[row] = exc
    last = len(sys.ts) - 1 if horizon is None else sys.ts.index_of(horizon)
    for i in range(last + 1):
        rows = np.array([row for row, path in enumerate(paths) if len(path) > i], dtype=int)
        stack = oracles.stack([paths[row][i] for row in rows]) if rows.size else sys.u0.take([])
        yield float(sys.ts.points[i]), int(sys.schedule.segments[i]), rows, stack


def test_component_indexing_rhs_fails_at_t0_and_stacks_give_the_per_sample_verdict(monkeypatch):
    b = catalog.make_example_3_9(GRID, 10.0)
    ts = b.system.ts

    # the catalog dynamics, written one component at a time: a stack has none
    def rhs(t, u, lam):
        eta = 1.0 / (1.0 + ts.mu(t))
        return f.vector(f.add(f.scale(-eta, u[0]), f.scale(eta, lam[0])))

    indexing = b.system.replace(
        rhs=rhs, u0=oracles.stack([b.system.u0, f.scale(0.5, b.system.u0)]))
    q = StabilityQuery(lam=1.0, A=2.0, B=1.5, T0=4.0, rho=100.0,
                       count=12, seed=4, family="trapezoid")
    for run in (lambda: solve(indexing, read=lambda t, u: u, failures={}),
                lambda: check_practical_stability(indexing, b.comparison, b.lyapunov, b.kpair,
                                                  q, 10.0)):
        with pytest.raises(StepFailureError) as failed:
            run()
        assert failed.value.t == 0.0
        assert isinstance(failed.value.__cause__, f.InvalidShapeError)
        assert "take one sample first" in str(failed.value)

    def verdict():
        v = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
        return json.dumps(v.to_dict(), sort_keys=True)

    stacked = verdict()
    assert json.loads(stacked)["metadata"]["skipped_step_failures"]
    monkeypatch.setattr(hybrid, "stacked_states", stacked_states_each_sample)
    assert stacked == verdict()


def direct_trajectories(sys, q, horizon, modes=tuple(StepMode)):
    """Reference for the direct route's marches: the probe and the samples,
    without the shrunken probe, each solved on its own by ``hybrid.solve``;
    per mode, the mode, the surviving sample ids, their trajectories and the
    StepFailureErrors of the others by sample id."""
    grid, n = sys.u0.grid, sys.u0.n
    states = [boundary_probe(grid, n, q.family, q.lam)]
    states += oracles.sample_states(oracles.Stream(q.seed, 2), grid, n, q.family, q.lam,
                                    q.count)
    runs = []
    for mode in modes:
        sample_ids, trajs, failures = [], [], {}
        for sample_id, u0 in enumerate(states, start=-1):
            try:
                trajs.append(solve(sys.replace(u0=u0), mode, horizon))
                sample_ids.append(sample_id)
            except StepFailureError as exc:
                failures[sample_id] = exc
        runs.append((mode, sample_ids, trajs, failures))
    return runs


def direct_route_with_probe_resolve(sys, q, horizon, modes):
    """Reference for ``_direct_route``: the samples solved without the shrunken
    probe and walked point by point, and a strict probe excess confirmed by
    solving the shrunken probe on its own, at most once per mode."""
    t0 = float(sys.ts.points[0])
    bounds = [("practically_stable", q.A, lambda t: True)]
    if q.B is not None:
        bounds.append(("quasi_stable", q.B, lambda t: q.T0 is not None and t >= t0 + q.T0))
    bounds.append(("asymptotically_stable", q.A, lambda t: q.T0 is not None and t >= t0 + q.T0))
    earliest, stacks, skipped, grazes, inner_runs = {}, [], [], [], {}

    def record(prop, t, value, bound, mode, sample_id, u0):
        key = (t, sample_id, mode, prop)
        if prop not in earliest or key < earliest[prop][0]:
            earliest[prop] = (key, value, bound, u0)

    def confirmed(mode, t, bound, u0):
        if mode not in inner_runs:
            try:
                inner_runs[mode] = solve(sys.replace(u0=f.scale(1.0 - 1e-9, u0)),
                                         mode, horizon)
            except StepFailureError:
                inner_runs[mode] = None
        return inner_runs[mode] is not None and f.norm(inner_runs[mode].value_at(t)) >= bound

    for mode, sample_ids, trajs, failures in direct_trajectories(sys, q, horizon, modes):
        skipped += [{"mode": mode.value, "sample": sample_id, "t": exc.t}
                    for sample_id, exc in sorted(failures.items())]
        stacks.append((mode.value, sample_ids, trajs))
        for sample_id, traj in zip(sample_ids, trajs):
            u0 = traj.values[0]
            for t, state in zip(traj.times.tolist(), traj.values):
                d = f.norm(state)
                for prop, bound, when in bounds:
                    if not when(t) or d < bound:
                        continue
                    if sample_id >= 0 or (d > bound and confirmed(mode, t, bound, u0)):
                        record(prop, t, d, bound, mode.value, sample_id, u0)
                    else:
                        grazes.append({"property": prop, "mode": mode.value, "t": t, "value": d})

    stable_testable = any(ids for _, ids, _ in stacks)
    quasi_testable = stable_testable and q.B is not None and q.T0 is not None

    def outcome(testable, *props):
        found = [earliest[p] for p in props if p in earliest]
        if not testable:
            return {"status": NOT_TESTED, "witness": None}
        if not found:
            return {"status": HOLDS, "witness": None}
        (t, sample_id, mode, prop), value, bound, u0 = min(found, key=lambda e: e[0])
        witness = stability.Witness(prop, t, value, bound, mode, sample_id, u0)
        return {"status": VIOLATED, "witness": witness.to_dict()}

    outcomes = {
        "practically_stable": outcome(stable_testable, "practically_stable"),
        "quasi_stable": outcome(quasi_testable, "quasi_stable"),
        "strongly_stable": outcome(quasi_testable, "practically_stable", "quasi_stable"),
        "asymptotically_stable": outcome(stable_testable, "practically_stable",
                                         "asymptotically_stable"),
    }
    return outcomes, stacks, skipped, grazes


def _integer_system(rhs, horizon):
    ts = f.integer(int(horizon))
    return f.HybridFuzzySystem(ts, (0.0,), rhs, (lambda t, u: f.zero_vector(u.grid, u.n),),
                               100.0, f.vector(f.crisp(0.1, GRID)))


def _wide(t, u, lam):
    return f.vector(tri(-1, 0, 1))


def _zero_then_constant(t, u, lam):
    # every state is crisp 0 at t=1 and crisp 1.5 at t=2, the probe's shrunken copy too
    return f.scale(-1.0, u) if t == 0.0 else f.vector(f.crisp(1.5, GRID))


def _grow_half(t, u, lam):
    return f.scale(0.5, u)


# the distance of the shrunken crisp probe of _grow_half at t=1
_SHRUNK_AT_1 = (1.0 - 1e-9) + 0.5 * (1.0 - 1e-9)


def _widen_inside_lambda(t, u, lam):  # for lambda = 1, on one-component states
    # per sample: inside lambda the wide triangle, with which no contractive
    # step exists; outside, half the state
    wide, half = f.vector(tri(-1, 0, 1)), f.scale(0.5, u)
    inside = np.asarray(f.norm(u) < 1.0)[..., None, None]
    return f.FuzzyVector.from_arrays(u.grid, np.where(inside, wide.lower, half.lower),
                                     np.where(inside, wide.upper, half.upper))


def _probe_witness(prop, mode):
    return lambda got: (got["properties"][prop]["witness"]["sample"] == -1
                        and got["properties"][prop]["witness"]["mode"] == mode)


@pytest.mark.parametrize("system, q, horizon, shows", [
    (catalog.make_example_3_9(GRID, 10.0).system,
     StabilityQuery(lam=1.0, A=2.0, B=1.5, T0=4.0, rho=100.0,
                    count=12, seed=13, family="triangular"), 10.0,
     _probe_witness("practically_stable", "expansive")),
    (catalog.make_crisp_contraction(GRID, 8.0).system, crisp_query(), 8.0,
     lambda got: {"property": "practically_stable", "mode": "expansive", "t": 0.0,
                  "value": 1.0} in got["probe_grazes"]),
    (_integer_system(_wide, 6.0),
     StabilityQuery(lam=0.5, A=1.0, rho=100.0, count=10, seed=1, family="crisp"), 6.0,
     lambda got: (got["sample_ids"] == [list(range(-1, 10)), []]
                  and {"mode": "contractive", "sample": -1, "t": 0.0}
                  in got["skipped_step_failures"])),
    (catalog.make_crisp_contraction(GRID, 10.0).system, crisp_query(B=0.01, T0=1.0), 10.0,
     _probe_witness("quasi_stable", "contractive")),
    # the probe survives both modes, its shrunken copy only the expansive one;
    # from T0 on, three properties graze at each point
    (_integer_system(_widen_inside_lambda, 4.0),
     StabilityQuery(lam=1.0, A=1.2, B=1.2, T0=3.0, rho=100.0,
                    count=6, seed=2, family="crisp"), 4.0,
     lambda got: (got["sample_ids"] == [list(range(-1, 6)), [-1]]
                  and len(got["skipped_step_failures"]) == 6
                  and got["properties"]["practically_stable"]["witness"]["mode"] == "expansive"
                  and [(g["t"], g["property"][0]) for g in got["probe_grazes"]] == [
                      (1.0, "p"), (2.0, "p"), (3.0, "p"), (3.0, "q"), (3.0, "a"),
                      (4.0, "p"), (4.0, "q"), (4.0, "a")]
                  and all(g["mode"] == "contractive" and g["value"] > 1.2
                          for g in got["probe_grazes"]))),
    # the probe equals the bound where its shrunken copy reaches it: a graze
    (_integer_system(_zero_then_constant, 2.0),
     StabilityQuery(lam=1.0, A=1.5, rho=100.0, count=4, seed=3, family="crisp"), 2.0,
     lambda got: ({"property": "practically_stable", "mode": "expansive", "t": 2.0,
                   "value": 1.5} in got["probe_grazes"]
                  and got["properties"]["practically_stable"]["witness"]["sample"] == 0)),
    # the probe exceeds the bound where its shrunken copy equals it: counted
    (_integer_system(_grow_half, 3.0),
     StabilityQuery(lam=1.0, A=_SHRUNK_AT_1, rho=100.0, count=4, seed=3, family="crisp"),
     3.0,
     lambda got: (got["properties"]["practically_stable"]["witness"]["t"] == 1.0
                  and got["properties"]["practically_stable"]["witness"]["sample"] == -1)),
], ids=["probe-confirmed", "graze-lambda-equals-A", "probe-fails-contractive", "crisp-family",
        "shrunken-copy-fails", "probe-equals-bound", "shrunken-copy-equals-bound"])
def test_direct_route_equals_the_probe_walk_with_its_own_shrunken_solve(system, q, horizon,
                                                                         shows):
    routes = [stability._direct_route(system, norm_lyapunov(), q, horizon, tuple(StepMode)),
              direct_route_with_probe_resolve(system, q, horizon, tuple(StepMode))]
    got, reference = [{"properties": outcomes,
                       "sample_ids": [ids for _, ids, *_ in stacks],
                       "trajectories": sum(len(ids) for _, ids, *_ in stacks),
                       "skipped_step_failures": skipped,
                       "probe_grazes": grazes} for outcomes, stacks, skipped, grazes in routes]
    assert shows(got)
    assert got == reference
    assert json.dumps(got) == json.dumps(reference)


def test_direct_route_reports_the_first_initial_state_outside_the_ball():
    b = catalog.make_example_3_9(GRID, 10.0)
    sys = b.system.replace(u0=f.vector(tri(-0.1, 0, 0.1)), rho=0.75)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=4, seed=1)
    with pytest.raises(ConfigError, match=r"sampled initial state \(distance 1\) lies outside "
                                          r"the validity ball of radius 0.75"):
        check_practical_stability(sys, b.comparison, b.lyapunov, b.kpair, q, 10.0)


# ---------------------------------------------------------------------------
# condition (ii) on stacks against the per-sample check
# ---------------------------------------------------------------------------

def condition_ii_per_sample(V, comp, stacks, tol):
    """Reference: condition (ii) one surviving sample at a time, with V, g and
    psi called on floats and the Dini estimate of V along one state at a time.
    A sample checked over some step must have a finite V at every point."""
    worst, violations, checked = math.inf, [], 0
    for mode, sample_ids, trajs in stacks:
        for sample_id, traj in zip(sample_ids, trajs):
            for t in traj.times.tolist() if len(traj) > 1 else []:
                value = float(V(t, traj.value_at(t)))
                if not math.isfinite(value):
                    raise ConfigError(f"V is not finite at t={t!r}, mode={mode}, "
                                      f"sample={sample_id}: {value!r}")
            for t in traj.times[:-1].tolist():
                k = int(np.searchsorted(comp.switch_times, t, side="right")) - 1
                tk = comp.switch_times[k]
                lhs = traj.ts.upper_dini(lambda s: V(s, traj.value_at(s)), t, horizon=traj.horizon)
                rhs = comp.g(t, V(t, traj.value_at(t)), comp.psi[k](V(tk, traj.value_at(tk))))
                margin = rhs - lhs
                worst = min(worst, margin)
                checked += 1
                if margin < -tol:
                    violations.append([t, lhs, rhs, mode, sample_id])
    return {"passed": bool(checked) and not violations, "checked_steps": checked,
            "worst_margin": worst if checked else None, "violations": violations[:10]}


def dsl_query(config):
    """Bundle, query and horizon of a stability config, as the CLI builds them."""
    parser = configparser.ConfigParser()
    parser.read_string(config)
    cfg = RunConfig({name: dict(parser[name]) for name in parser.sections()},
                    Path("out"), int(parser.get("output", "alpha_levels", fallback="11")), None)
    bundle, horizon, _ = build_bundle(cfg)
    return bundle, build_query(cfg, bundle.system.rho), horizon


def direct_stacks(sys, V, q, horizon, modes=tuple(StepMode)):
    """The direct route's records of its stacks (see ``_simulate_direct``), and
    the same samples solved one at a time by the reference, ``direct_trajectories``."""
    stacks, _, _, _ = stability._simulate_direct(sys, V, q, horizon, modes)
    trajs = [(mode.value, ids, trajs)
             for mode, ids, trajs, _ in direct_trajectories(sys, q, horizon, modes)]
    assert [ids for _, ids, _, _ in stacks] == [ids for _, ids, _ in trajs]
    return stacks, trajs


def dsl_stacks(config):
    """Bundle, direct-route stacks and reference trajectories of a stability
    config, as the CLI builds them."""
    bundle, q, horizon = dsl_query(config)
    return (bundle, *direct_stacks(bundle.system, bundle.lyapunov, q, horizon))


def assert_stacked_check_equals_per_sample_check(V, comp, stacks, trajs):
    report = _check_condition_ii(comp, stacks)
    reference = condition_ii_per_sample(V, comp, trajs, tol=1e-9)
    assert report == reference
    assert json.dumps(report) == json.dumps(reference)  # also tells -0.0 from 0.0
    return report


def test_condition_ii_on_stacks_with_failed_contractive_samples():
    b = catalog.make_example_3_9(GRID, 6.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       count=12, seed=3, family="triangular")
    _, skipped, _, _ = stability._simulate_direct(b.system, b.lyapunov, q, 6.0, tuple(StepMode))
    assert len(skipped) == 12
    # a V with one value for every sample is broadcast over the stack
    for V in (b.lyapunov, LyapunovFn(lambda t, u: 1.0)):
        stacks, trajs = direct_stacks(b.system, V, q, 6.0)
        assert [ids for _, ids, _, _ in stacks] == [list(range(-1, 12)), [-1]]
        report = assert_stacked_check_equals_per_sample_check(V, b.comparison, stacks, trajs)
        assert report["checked_steps"] == 6 * 14


@pytest.mark.parametrize("config", ["DSL_STABILITY", "DSL_DENSE_STABILITY"],
                         ids=["gap-two-segments", "dense"])
def test_condition_ii_on_stacks_of_a_dsl_system(config):
    bundle, stacks, trajs = dsl_stacks(getattr(test_golden, config))
    assert len(bundle.comparison.switch_times) == 2
    report = assert_stacked_check_equals_per_sample_check(bundle.lyapunov, bundle.comparison,
                                                          stacks, trajs)
    assert report["checked_steps"] > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_ii_raises_at_the_first_V_that_overflows_as_the_float_path():
    # the states grow past 1e8, so V = d * 1e300 overflows to inf
    bundle, stacks, trajs = dsl_stacks(test_golden.DSL_STABILITY.replace(
        "V = d", "V = d * 1e300").replace(
        "rhs = circminus(u) fadd smul(eta(t), lam)", "rhs = smul(1e9, u)"))
    message = "V is not finite at t=0.2, mode=expansive, sample=-1: inf"
    with pytest.raises(ConfigError) as got:
        _check_condition_ii(bundle.comparison, stacks)
    with pytest.raises(ConfigError) as want:
        condition_ii_per_sample(bundle.lyapunov, bundle.comparison, trajs, tol=1e-9)
    assert str(got.value) == str(want.value) == message


def test_condition_ii_on_a_stack_whose_samples_all_failed():
    ts = f.integer(5)
    wide = f.vector(tri(-1, 0, 1))
    sys = f.HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: wide,
                              (lambda t, u: f.zero_vector(u.grid, u.n),), 10.0,
                              f.vector(f.crisp(0.0, GRID)))
    comp = f.ScalarHybridSystem(ts, (0.0,), lambda t, w, wk: w, (lambda v: v,), 1.0)
    q = StabilityQuery(lam=0.5, A=1.0, rho=10.0, count=2, seed=4, family="crisp")
    for modes in ((StepMode.CONTRACTIVE,), (StepMode.CONTRACTIVE, StepMode.EXPANSIVE)):
        stacks, trajs = direct_stacks(sys, norm_lyapunov(), q, 5.0, modes)
        assert [ids for _, ids, _, _ in stacks] == [[], [-1, 0, 1]][:len(modes)]
        report = assert_stacked_check_equals_per_sample_check(norm_lyapunov(), comp, stacks,
                                                              trajs)
        assert report["checked_steps"] == 5 * len(stacks[-1][1])
        # no checked step is no evidence: the check does not pass
        assert report["passed"] is (report["checked_steps"] > 0 and not report["violations"])
    assert report["worst_margin"] is not None


# States reach about 1e120 at t=1 and overflow at t=2, so every sample's
# expansive step fails and condition (ii) checks no step at all.
DIVERGENCE = """
[timescale]
scale = integer(6)

[system]
rhs = smul(1e120, u)
u0 = tri(-1,0,1)
rho = 1e300
horizon = 6

[comparison]
g = (-r + v)/(1 + mu(t))
psi = v

[lyapunov]
V = d

[stability]
lambda = 1
A = 2
samples = 20
modes = expansive
seed = 0
"""


def test_condition_ii_with_no_checked_step_transfers_nothing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(DIVERGENCE)
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    verdict = json.loads((tmp_path / "out" / "verdict.json").read_text())
    report = verdict["hypothesis_report"]
    assert report["condition_ii"]["checked_steps"] == 0
    assert report["condition_ii"]["passed"] is False and report["all_passed"] is False
    assert verdict["comparison_verdict"]["practically_stable"] == HOLDS
    assert not [c for c in verdict["implied_conclusions"].values()
                if c.startswith("holds-on-samples")]


# Every sample fails the first contractive step, and V raises on the probe's
# row only (its distance is lambda = 1), before that step.
V_RAISES_ON_A_FAILING_ROW = """
[timescale]
scale = integer(4)

[system]
rhs = tri(-2,0,2)
u0 = crisp(0)
rho = 10
horizon = 4

[comparison]
g = -r/(1 + mu(t))
psi = v
r0 = 0

[lyapunov]
V = 1/(d - 1)

[stability]
lambda = 1
A = 2
samples = 3
modes = contractive
seed = 0
"""


def test_a_V_that_raises_on_a_row_that_later_fails_fails_the_run(tmp_path, capsys):
    # V is read at every point on every live row, also on rows that fail
    # later; a run that never read such a row gave a not-tested verdict
    cfg = tmp_path / "run.cfg"
    cfg.write_text(V_RAISES_ON_A_FAILING_ROW)
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "division by zero" in capsys.readouterr().err
    assert not (tmp_path / "out" / "verdict.json").exists()


def test_condition_ii_reads_V_at_a_switch_time_off_its_stored_point():
    ts = f.integer(8)
    switch_times = (0.0, 4.0 - 1e-12)  # 4.0 up to lookup noise
    sys = f.HybridFuzzySystem(ts, switch_times, lambda t, u, lam: f.add(f.scale(-0.5, u), lam),
                              (lambda t, u: f.zero_vector(u.grid, u.n), lambda t, u: u), 100.0,
                              f.vector(tri(-1, 0, 1)))
    held = []  # the arguments of psi_1
    comp = f.ScalarHybridSystem(ts, switch_times, lambda t, w, wk: -0.5 * w + wk,
                                (lambda v: 0.0 * v, lambda v: held.append(v) or 0.5 * v), 1.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=2, seed=6)
    calls = []
    V = LyapunovFn(lambda t, u: calls.append(t) or f.norm(u) * (1.0 + t))
    stacks, trajs = direct_stacks(sys, V, q, 8.0, (StepMode.EXPANSIVE,))
    assert switch_times[1] not in calls  # V is read at the stored point the switch names
    report = _check_condition_ii(comp, stacks)
    [(_, _, _, v)] = stacks
    assert len(held) == 1 and held[0].tobytes() == v[4].tobytes()
    assert report == assert_stacked_check_equals_per_sample_check(V, comp, stacks, trajs)
    assert report["violations"]


# ---------------------------------------------------------------------------
# the comparison route: one stacked march, the per-start errors
# ---------------------------------------------------------------------------

def test_comparison_route_marches_its_starts_as_one_array(monkeypatch):
    calls = []
    real = cmp.solve_comparison
    monkeypatch.setattr(cmp, "solve_comparison", lambda *a, **k: calls.append(a) or real(*a, **k))
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, B=1.0, T0=3.0, rho=100.0)
    route = stability._comparison_route(b.comparison, b.kpair, q, 10.0)
    assert len(calls) == 1
    # the same verdict as one march per start
    per_start = [real(b.comparison.replace(r0=float(r0)), horizon=10.0)
                 for r0 in np.linspace(0.0, 1.0, stability.COMPARISON_GRID_SIZE, endpoint=False)]
    peaks = [float(np.max(t.values)) for t in per_start]
    assert route["worst_peak"] == max(peaks)
    assert [fail["r0"] for fail in route["failures"]] == [
        float(t.values[0]) for t, peak in zip(per_start, peaks) if peak >= 2.0][:10]
    assert [fail["t"] for fail in route["failures"]] == [
        float(t.times[np.argmax(t.values >= 2.0)]) for t, peak in zip(per_start, peaks)
        if peak >= 2.0][:10]
    tail_peak = max(float(np.max(t.values[t.times >= 3.0])) for t in per_start)
    assert route["quasi_stable"] == (VIOLATED if tail_peak >= 1.0 else HOLDS)


# An earlier start blows up at t=1.5; later ones blow up sooner, and the last
# start divides by zero in its first step.
@pytest.mark.parametrize("g", ["r * r * 100", "r * r * 100 + 1 / (16 * r - 15)"],
                         ids=["blow-up", "division-by-zero"])
def test_comparison_route_raises_what_the_first_failing_start_raises(tmp_path, capsys, g):
    config = test_golden.DSL_STABILITY.replace("g = (-r + v)/(1 + mu(t))", f"g = {g}")
    bundle, _, _ = dsl_query(config)
    starts = np.linspace(0.0, 1.0, stability.COMPARISON_GRID_SIZE, endpoint=False)
    with pytest.raises(FuzzyTSError) as stacked, np.errstate(over="ignore"):
        cmp.solve_comparison(bundle.comparison.replace(r0=starts), horizon=2.4)
    with pytest.raises(BlowUpError) as first:  # the per-start loop
        for r0 in starts:
            cmp.solve_comparison(bundle.comparison.replace(r0=float(r0)),
                                 horizon=2.4)
    assert str(stacked.value) != str(first.value)
    q = StabilityQuery(lam=1.0, A=2.0)
    with pytest.raises(BlowUpError) as route:
        stability._comparison_route(bundle.comparison, bundle.kpair, q, 2.4)
    assert (str(route.value), route.value.t) == (str(first.value), first.value.t)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    capsys.readouterr()
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        f"comparison dynamics blew up at t={first.value.t}: {first.value}\n")


def test_samples_whose_switch_map_fails_leave_as_on_their_own_solves(monkeypatch):
    bundle, q, horizon = dsl_query(test_golden.DSL_GHSUB_STABILITY.replace(
        "lambda_k = u_k", "lambda_k = ghsub(u_k, trap(-0.5,-0.2,0.2,0.5))"))

    def verdict():
        v = check_practical_stability(bundle.system, bundle.comparison, bundle.lyapunov,
                                      bundle.kpair, q, horizon)
        return json.dumps(v.to_dict(), sort_keys=True)

    stacked = verdict()
    skipped = json.loads(stacked)["metadata"]["skipped_step_failures"]
    assert {"mode": "expansive", "sample": 5, "t": 1.5} in skipped
    monkeypatch.setattr(hybrid, "stacked_states", stacked_states_each_sample)
    assert stacked == verdict()


# ---------------------------------------------------------------------------
# the hypothesis checks drawn into arrays against the per-draw loops
# ---------------------------------------------------------------------------

class SeededScriptedRng:
    """Plays back ``values`` as the first uniforms drawn, in C order, then
    draws every value from a seeded generator."""

    def __init__(self, values, seed):
        self.values = list(values)
        self.rng = np.random.default_rng(seed)

    def random(self, size):
        count = int(np.prod(size))
        played, self.values = self.values[:count], self.values[count:]
        return np.concatenate((played, self.rng.random(count - len(played)))).reshape(size)

    def integers(self, low, high, size):
        return self.rng.integers(low, high, size)


HYPOTHESIS_TS = f.intervals([[0, 1], [1.5, 2.5]], 0.25)
# the terminal point, a point after the gap and the point before the gap
HYPOTHESIS_HORIZONS = (2.5, 1.75, 1.0)
_DSL_V = dsl.compile_expr(dsl.parse_scalar("max(d, pow(d, 2)) * (1 + t)"), ("t", "d"),
                          ts=HYPOTHESIS_TS)

LYAPUNOV = {
    "norm": norm_lyapunov(),
    "norm-1-plus-t": LyapunovFn(lambda t, u: f.norm(u) * (1.0 + t), lipschitz=3.5),
    "constant": LyapunovFn(lambda t, u: 0.5, lipschitz=0.0),
    "dsl": LyapunovFn(lambda t, u: _DSL_V(t, f.norm(u))),
    "inf-above-1.5": LyapunovFn(lambda t, u: np.where(f.norm(u) > 1.5, np.inf, f.norm(u))[()]),
    # with the zero kpair, lower margins of -0.0 and 0.0: the first of equal minima wins
    "signed-zero": LyapunovFn(lambda t, u: np.where(t > 1.0, 0.0, -0.0)[()]),
}

KPAIRS = {
    "identity": ClassKPair(lambda x: x, lambda x: x),
    "nan-above-0.5": ClassKPair(lambda x: np.where(x > 0.5, np.nan, 2.0 * x)[()],
                                lambda x: 0.5 * x),
    "all-nan": ClassKPair(lambda x: x * np.nan, lambda x: np.where(x < 1.0, np.nan, x)[()]),
    "zero": ClassKPair(lambda x: 0.0 * x, lambda x: 0.0 * x),
}


def report_or_error(check, *args):
    """The check's report, or the message of the ConfigError it raises."""
    try:
        return check(*args)
    except ConfigError as exc:
        return str(exc)


def assert_same_report(got, want):
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # also tells -0.0 from 0.0


@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(sorted(oracles.UNIFORMS)),
       n=st.sampled_from([1, 3]), V=st.sampled_from(sorted(LYAPUNOV)),
       kpair=st.sampled_from(sorted(KPAIRS)), scripted=st.booleans())
@example(seed=2, family="crisp", n=1, V="signed-zero", kpair="zero", scripted=False)
@example(seed=2, family="triangular", n=3, V="dsl", kpair="nan-above-0.5", scripted=True)
@settings(max_examples=30, deadline=None)
def test_stacked_sandwich_and_lipschitz_equal_the_per_draw_loops(seed, family, n, V, kpair,
                                                                 scripted):
    V, kpair = LYAPUNOV[V], KPAIRS[kpair]
    # scripted: the first state drawn (distance 0.75) is nearly zero, a core
    # of 1e-12 and zero widths, and is redrawn
    k = oracles.UNIFORMS[family]
    zero = [0.5] + [0.0] * (k - 1)  # a component with core 2 * 0.5 - 1 = 0
    values = [0.375, 0.5 + 5e-13] + zero[1:] + zero * (n - 1) if scripted else []
    horizon = HYPOTHESIS_HORIZONS[seed % len(HYPOTHESIS_HORIZONS)]
    for check, reference, args in [
        (stability._check_sandwich, oracles.check_sandwich,
         lambda rng: (V, kpair, HYPOTHESIS_TS, horizon, GRID, n, family, 2.0, rng, 40)),
        (stability._check_lipschitz, oracles.check_lipschitz,
         lambda rng: (V, HYPOTHESIS_TS, horizon, GRID, n, family, 2.0, rng, 40)),
    ]:
        rngs = [SeededScriptedRng(values, seed) for _ in range(2)]
        got = report_or_error(check, *args(rngs[0]))
        with np.errstate(invalid="ignore"):  # inf - inf in the float loop
            want = report_or_error(reference, *args(rngs[1]))
        assert_same_report(got, want)
        assert not rngs[0].values  # every scripted value was drawn


_G = {
    "dsl-contraction": "(-r + v)/(1 + mu(t))",
    "dsl-decreasing-in-r": "(v - 3 * r) / mu(t)",
    "dsl-decreasing-in-v": "r - v * mu(t)",
    "dsl-zero": "0",
    "dsl-nan-beyond-1.5": "(-r + v)/(1 + mu(t)) + " + nan_beyond("r", 1.5),
}
_PSI = {"dsl-identity": "v", "dsl-folded": "abs(v - 1)", "dsl-constant": "2",
        "dsl-nan-beyond-1.5": "v + " + nan_beyond("v", 1.5)}


@given(seed=st.integers(0, 2 ** 64 - 1), g=st.sampled_from(sorted(_G) + ["catalog"]),
       psi=st.sampled_from(sorted(_PSI)), samples=st.integers(1, 120),
       horizon=st.sampled_from((None,) + HYPOTHESIS_HORIZONS + (0.0,)))
# with the horizon at the first point, a g decreasing in r is never sampled
@example(seed=5, g="dsl-decreasing-in-r", psi="dsl-folded", samples=50, horizon=0.0)
# a nan g or psi is no violation: both checks raise at the same draw
@example(seed=5, g="dsl-nan-beyond-1.5", psi="dsl-identity", samples=50, horizon=None)
@example(seed=5, g="dsl-zero", psi="dsl-nan-beyond-1.5", samples=50, horizon=None)
@settings(max_examples=40, deadline=None)
def test_stacked_monotonicity_equals_the_per_draw_loop(seed, g, psi, samples, horizon):
    ts = HYPOTHESIS_TS
    if g == "catalog":
        g = lambda t, w, w_k: (w + w_k) / (1.0 + ts.mu(t))  # noqa: E731
    else:
        g = dsl.compile_expr(dsl.parse_scalar(_G[g]), ("t", "r", "v"), ts=ts)
    psi = dsl.compile_expr(dsl.parse_scalar(_PSI[psi]), ("v",), ts=ts)
    comp = f.ScalarHybridSystem(ts, (0.0, 1.5), g, (psi, psi), 1.0)
    got = report_or_error(cmp.check_monotonicity_hypothesis, comp, samples, seed, (0.0, 4.0),
                          horizon)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf in the float loop
        want = report_or_error(oracles.check_monotonicity, comp, samples, seed, (0.0, 4.0),
                               1e-9, horizon)
    assert_same_report(got, want)


def test_lipschitz_check_that_calls_V_on_no_pair_does_not_pass():
    # every drawn pair lies within 1e-12 of each other, so V is called on none
    b = catalog.make_example_3_9(GRID, 10.0)
    report = stability._check_lipschitz(b.lyapunov, b.system.ts, 10.0, GRID, 1, "triangular",
                                        1e-13, draws.Stream(0, 1), 20)
    assert report["estimated_constant"] == 0.0 and report["passed"] is False


def test_monotonicity_check_that_draws_no_time_does_not_pass():
    # with the horizon at the first point, no (t, r, v) draw checks g
    b = catalog.make_example_3_9(GRID, 10.0)
    report = cmp.check_monotonicity_hypothesis(b.comparison, samples=50, horizon=0.0)
    assert (report["g_mu_r_violations"], report["g_v_violations"],
            report["psi_violations"]) == ([], [], [])
    assert report["passed"] is False


def test_hypothesis_checks_call_V_g_and_psi_once_per_layer(monkeypatch):
    b = catalog.make_example_3_9(GRID, 10.0)
    calls = {"V": 0, "g": 0, "psi": 0, "a": 0, "b": 0, "checked states": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(fuzzy, "_check", counted("checked states", fuzzy._check))
    V = LyapunovFn(counted("V", b.lyapunov), lipschitz=1.0)
    comp = b.comparison.replace(g=counted("g", b.comparison.g),
                                psi=tuple(counted("psi", p) for p in b.comparison.psi))
    stability._validate_class_k(ClassKPair(counted("a", b.kpair.a), counted("b", b.kpair.b)),
                                xmax=3.0)
    assert (calls["a"], calls["b"]) == (1, 1)  # on the whole grid at once
    seen = []
    for samples in (10, 40):
        for name in calls:
            calls[name] = 0
        rng = np.random.default_rng(samples)
        stability._check_sandwich(V, b.kpair, b.system.ts, 10.0, GRID, 1, "trapezoid", 2.0,
                                  rng, samples)
        assert calls["V"] == 1
        stability._check_lipschitz(V, b.system.ts, 10.0, GRID, 1, "trapezoid", 2.0, rng,
                                   samples)
        assert calls["V"] <= 1 + 2
        cmp.check_monotonicity_hypothesis(comp, samples=samples, seed=samples)
        assert calls["g"] <= 4 and calls["psi"] <= 2 * len(comp.psi)
        seen.append(dict(calls))
    assert seen[0] == seen[1]  # one stack per check, whatever the sample count
    assert seen[0]["checked states"] <= 2


def test_a_check_builds_one_generator_per_sampled_layer(monkeypatch):
    b = catalog.make_example_3_9(GRID, 6.0)
    built = []
    stream = draws.Stream
    monkeypatch.setattr(draws, "Stream", lambda seed, layer: built.append((seed, layer))
                        or stream(seed, layer))
    for count in (5, 60):
        built.clear()
        q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, count=count, seed=9)
        check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 6.0)
        # in call order: the sandwich, Lipschitz, monotonicity and direct-route layers
        assert built == [(9, 0), (9, 1), (9, 3), (9, 2)]


def test_sandwich_V_with_mu_draws_no_point_past_the_horizon(tmp_path, capsys):
    # mu(t) is defined at every point the hypothesis layers draw: up to the
    # horizon 2.4, never the terminal point 2.5
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(test_golden.DSL_STABILITY.replace(
        "V = d", "V = max(d, pow(d, 2)) / (1 + mu(t))"))
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads((tmp_path / "v" / "verdict.json").read_text())["hypothesis_report"]
    assert report["sandwich"]["samples"] == report["lipschitz"]["samples"] == 100


@pytest.mark.parametrize("horizon", [2.5, 1.75, 1.5, 1.0, 0.0])
def test_hypothesis_layers_draw_every_point_up_to_the_horizon_with_a_successor(horizon):
    t, _ = stability._draw_layer(HYPOTHESIS_TS, horizon, GRID, 1, "crisp", 1.0,
                                 np.random.default_rng(1), 400, 1)
    assert sorted(set(t.tolist())) == oracles.drawable_times(HYPOTHESIS_TS, horizon)
