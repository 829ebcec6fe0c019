import configparser
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fuzzyts as f
import oracles
import test_golden
from fuzzyts import catalog, comparison as cmp, dsl, fuzzy, hybrid, stability
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
    SamplingPlan,
    StabilityQuery,
    boundary_probe,
    check_practical_stability,
    dini_along_solution,
    norm_lyapunov,
    sample_initial_state,
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
    assert dini_along_solution(V, traj, 0.0) == pytest.approx(-0.5, abs=TOL)


def test_dini_triangular_expansion_first_step():
    bundle = catalog.make_example_3_9(GRID, 8.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=8.0)
    V = norm_lyapunov()
    assert dini_along_solution(V, traj, 0.0) == pytest.approx(0.5, abs=TOL)


def test_dini_constant_V_is_zero():
    bundle = catalog.make_example_3_9(GRID, 8.0)
    traj = solve(bundle.system, horizon=8.0)
    V = LyapunovFn(lambda t, u: 7.0)
    for t in traj.ts.kappa_points()[:8]:
        assert dini_along_solution(V, traj, float(t)) == pytest.approx(0.0, abs=TOL)


def test_dini_matches_quotient_oracle_at_scattered_points():
    bundle = catalog.make_example_3_9(GRID, 10.0)
    traj = solve(bundle.system, horizon=10.0)
    V = norm_lyapunov()
    for i in range(len(traj) - 1):
        t = float(traj.ts.points[i])
        mu = traj.ts.mu(t)
        quotient = (V(t + mu, traj.values[i + 1]) - V(t, traj.values[i])) / mu
        assert dini_along_solution(V, traj, t) == pytest.approx(quotient, abs=TOL)


def test_dini_on_dense_scale_stops_at_trajectory_end():
    ts = f.uniform(0.0, 1e-7, 20)
    xs = [2.0 + np.sin(i) for i in range(16)]  # trajectory ends at point 15
    traj = FuzzyTrajectory(ts, [f.vector(f.crisp(x, GRID)) for x in xs])
    V = norm_lyapunov()
    t = ts.points
    for i in range(8, 15):
        quotients = [(xs[i + 1] - xs[j]) / (t[i + 1] - t[j]) for j in range(i + 2, 16)]
        expected = max(quotients) if quotients else (xs[i + 1] - xs[i]) / (t[i + 1] - t[i])
        assert dini_along_solution(V, traj, float(t[i])) == pytest.approx(expected, rel=1e-12)


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
        assert dini_along_solution(V, traj, t) <= f.norm(deriv) + TOL


# ---------------------------------------------------------------------------
# comparison bound verification
# ---------------------------------------------------------------------------

def test_bound_example_companion():
    bundle = catalog.make_example_3_9(GRID, 10.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=10.0)
    scalar = f.solve_comparison(bundle.comparison, horizon=10.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar, tol=1e-9)
    assert report.holds and report.checked_points == 11
    V = bundle.lyapunov
    assert [V(float(t), traj.values[i]) for i, t in enumerate(traj.times[:3])] == \
        pytest.approx([1.0, 1.5, 2.25], abs=TOL)
    assert [float(x) for x in scalar.values[:3]] == pytest.approx([1.0, 2.0, 3.5], abs=TOL)


def test_bound_equality_case_holds_at_tight_tolerance():
    bundle = catalog.make_crisp_contraction(GRID, 10.0, u0=f.vector(f.crisp(1.0, GRID)))
    traj = solve(bundle.system, horizon=10.0)
    scalar = f.solve_comparison(bundle.comparison, horizon=10.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar, tol=1e-12)
    assert report.holds
    assert report.max_excess <= TOL  # V and r coincide exactly


def test_bound_precondition_gate():
    bundle = catalog.make_crisp_contraction(GRID, 6.0, u0=f.vector(f.crisp(1.0, GRID)),
                                            r0=0.5)
    traj = solve(bundle.system, horizon=6.0)
    scalar = f.solve_comparison(bundle.comparison, horizon=6.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar, tol=1e-9)
    assert not report.precondition_ok and not report.holds
    assert report.checked_points == 0


def test_bound_reports_violations():
    bundle = catalog.make_example_3_9(GRID, 8.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=8.0)
    weak = f.ScalarHybridSystem(bundle.comparison.ts, bundle.comparison.switch_times,
                                lambda t, r, v: 0.0,
                                bundle.comparison.psi, 1.0)
    scalar = f.solve_comparison(weak, horizon=8.0)
    report = verify_comparison_bound(bundle.lyapunov, traj, scalar, tol=1e-9)
    assert report.violations and not report.holds
    assert report.violations[0][0] == 1.0  # first exceedance at t = 1


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


@pytest.mark.parametrize("family", ["crisp", "triangular", "trapezoid"])
def test_sampler_hits_target_distance(family):
    rng = np.random.default_rng(0)
    for target in (0.1, 0.5, 2.0):
        u = sample_initial_state(rng, GRID, 2, family, target)
        assert f.norm(u) == pytest.approx(target, rel=1e-9)
        if family == "crisp":
            assert u.is_crisp


def reference_sample(rng, grid, n, family, target):
    """The sampler built the long way: one make_trapezoid number per
    component, a vector of them, then a rescale by the kernels."""
    while True:
        comps = []
        for _ in range(n):
            c = float(rng.uniform(-1.0, 1.0))
            if family == "crisp":
                comps.append((c, c, c, c))
            elif family == "triangular":
                wl = float(rng.uniform(0.0, 1.0))
                wr = float(rng.uniform(0.0, 1.0))
                comps.append((c - wl, c, c, c + wr))
            else:
                wl = float(rng.uniform(0.0, 1.0))
                wr = float(rng.uniform(0.0, 1.0))
                half = float(rng.uniform(0.0, 0.5))
                comps.append((c - half - wl, c - half, c + half, c + wr + half))
        raw = f.FuzzyVector(tuple(f.make_trapezoid(*nodes, grid) for nodes in comps))
        size = f.norm(raw)
        if size > 1e-9:
            return f.scale(target / size, raw)


@pytest.mark.parametrize("family", ["crisp", "triangular", "trapezoid"])
def test_sampler_equals_per_component_trapezoids(family):
    for seed in range(25):
        for n in (1, 3):
            target = 0.05 + 0.1 * seed
            got = sample_initial_state(np.random.default_rng(seed), GRID, n, family, target)
            want = reference_sample(np.random.default_rng(seed), GRID, n, family, target)
            assert got.lower.tobytes() == want.lower.tobytes()
            assert got.upper.tobytes() == want.upper.tobytes()


def test_sampler_is_deterministic_under_seed():
    a = sample_initial_state(np.random.default_rng(42), GRID, 1, "triangular", 0.7)
    b = sample_initial_state(np.random.default_rng(42), GRID, 1, "triangular", 0.7)
    assert f.dist(a, b) == 0.0


class ScriptedRng:
    """Stand-in generator: plays back ``values`` then repeats ``rest``."""

    def __init__(self, values=(), rest=0.0):
        self.values = list(values)
        self.rest = rest
        self.draws = 0

    def uniform(self, low, high):
        self.draws += 1
        return self.values.pop(0) if self.values else self.rest


def test_sampler_gives_up_on_degenerate_generator():
    rng = ScriptedRng()
    with pytest.raises(ConfigError, match="nearly-zero"):
        sample_initial_state(rng, GRID, 2, "crisp", 0.5)
    assert rng.draws == 2 * MAX_SAMPLE_ATTEMPTS


def test_sampler_redraws_nearly_zero_states_from_the_same_generator():
    rng = ScriptedRng(values=[0.0, 1e-12, 0.25, -0.5], rest=0.9)
    u = sample_initial_state(rng, GRID, 2, "crisp", 2.0)
    assert rng.draws == 4  # one rejected draw, one accepted
    assert [c.crisp_value() for c in u] == [1.0, -2.0]


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
                    sampling=SamplingPlan(count=60, seed=21, family="crisp"))
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
                       sampling=SamplingPlan(count=60, seed=13, family="triangular"))
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
                       sampling=SamplingPlan(count=20, seed=13, family="triangular"))
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
                       sampling=SamplingPlan(count=30, seed=3, family="triangular"))
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
                       sampling=SamplingPlan(10, 1, "crisp"))
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
                        sampling=SamplingPlan(count=40, seed=2, family="triangular"))),
        (catalog.make_example_3_9(GRID, 10.0),
         StabilityQuery(lam=0.5, A=3.0, B=4.0, T0=2.0, rho=100.0,
                        sampling=SamplingPlan(count=40, seed=2, family="trapezoid"))),
    ]
    for bundle, query in cases:
        verdict = check_practical_stability(bundle.system, bundle.comparison,
                                            bundle.lyapunov, bundle.kpair,
                                            query, 10.0)
        assert not verdict.consistency["inconsistent"]


# ---------------------------------------------------------------------------
# cost guards: deterministic counts of repeated work
# ---------------------------------------------------------------------------

def test_probe_is_resolved_at_most_once_per_mode(monkeypatch):
    calls = []
    real_solve = hybrid.solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(hybrid, "solve", counting_solve)
    b = catalog.make_example_3_9(GRID, 10.0)
    plan = SamplingPlan(count=8, seed=13, family="triangular")
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, sampling=plan)
    verdict = check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
    assert verdict.properties["practically_stable"]["witness"]["sample"] == -1
    assert len(calls) <= (plan.count + 1) * 2 + 2


@pytest.mark.parametrize("ts", [f.integer(12), f.uniform(0.0, 1e-7, 12)],
                         ids=["scattered", "dense"])
def test_condition_ii_evaluates_V_once_per_point(ts):
    switch_times = (0.0, float(ts.points[5]))

    def hold_zero(t, u):
        return f.zero_vector(u.grid, u.n)

    def stacked_system(*states):
        return f.HybridFuzzySystem(ts, switch_times, lambda t, u, lam: f.scale(-0.5, u),
                                   (hold_zero, lambda t, u: u), 100.0,
                                   f.FuzzyVector.stack([f.vector(s) for s in states]))

    comp = f.ScalarHybridSystem(ts, switch_times, lambda t, w, wk: -0.5 * w,
                                (lambda v: v, lambda v: v), 1.0)
    stacks = [("expansive", [0, 1], solve(stacked_system(tri(-1, 0, 1), tri(0, 1, 2)),
                                          horizon=float(ts.points[10]))),
              ("contractive", [-1, 0, 1], solve(stacked_system(tri(-1, 0, 1), tri(0, 1, 2),
                                                               tri(-2, -1, 1))))]
    calls = []
    V = LyapunovFn(lambda t, u: calls.append(t) or f.norm(u))
    report = _check_condition_ii(V, comp, stacks, tol=1e-9)
    assert report["checked_steps"] == 10 * 2 + 12 * 3
    assert len(calls) <= sum(len(traj) for _, _, traj in stacks)


def test_condition_ii_calls_g_once_per_point_per_mode(monkeypatch):
    b = catalog.make_example_3_9(f.AlphaGrid.uniform(5), 10.0)
    calls = []
    g = b.comparison.g
    monkeypatch.setattr(b.comparison, "g", lambda *args: calls.append(args) or g(*args))
    counts = []
    for count in (10, 40):
        q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                           sampling=SamplingPlan(count=count, seed=3, family="triangular"))
        calls.clear()
        check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_stability_check_solves_each_mode_once(monkeypatch):
    calls = []
    real_solve = hybrid.solve

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(hybrid, "solve", counting_solve)
    b = catalog.make_example_3_9(GRID, 10.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       sampling=SamplingPlan(count=8, seed=13, family="triangular"))
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
                       sampling=SamplingPlan(count=40, seed=5, family="trapezoid"))
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
                           sampling=SamplingPlan(count=count, seed=3, family="triangular"))
        built.clear()
        check_practical_stability(b.system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
        counts.append(len(built))
    assert counts[0] == counts[1] <= 6


# ---------------------------------------------------------------------------
# the direct route on stacked solves
# ---------------------------------------------------------------------------

def solve_each_sample(sys, mode=StepMode.EXPANSIVE, horizon=None, *, real_solve=solve):
    """Reference for a stacked solve: one single-state solve per sample."""
    if sys.u0.samples is None:
        return real_solve(sys, mode, horizon)
    survivors, failures = {}, {}
    for row, u0 in enumerate(sys.u0.unstack()):
        try:
            survivors[row] = real_solve(sys.replace(u0=u0), mode, horizon)
        except StepFailureError as exc:
            failures[row] = exc
    trajs = list(survivors.values())
    values = [f.FuzzyVector.stack(states) for states in zip(*(t.values for t in trajs))]
    return FuzzyTrajectory(sys.ts, values or [sys.u0.take([])],
                           trajs[0].segments if trajs else None,
                           rows=np.array(list(survivors), dtype=int), failures=failures)


def test_component_indexing_rhs_gives_the_verdict_of_one_solve_per_sample(monkeypatch):
    b = catalog.make_example_3_9(GRID, 10.0)
    ts = b.system.ts

    # the catalog dynamics, written one component at a time
    def rhs(t, u, lam):
        eta = 1.0 / (1.0 + ts.mu(t))
        return f.vector(f.add(f.scale(-eta, u[0]), f.scale(eta, lam[0])))

    def hold_zero(t_k, u_k):
        return f.vector(f.crisp(0.0, u_k[0].grid))

    def reinject(t_k, u_k):
        return f.vector(u_k[0])

    maps = (hold_zero,) + (reinject,) * (len(b.system.switch_maps) - 1)
    indexing = b.system.replace(rhs=rhs, switch_maps=maps)
    q = StabilityQuery(lam=1.0, A=2.0, B=1.5, T0=4.0, rho=100.0,
                       sampling=SamplingPlan(count=12, seed=4, family="trapezoid"))

    def verdict(system):
        v = check_practical_stability(system, b.comparison, b.lyapunov, b.kpair, q, 10.0)
        return json.dumps(v.to_dict(), sort_keys=True)

    stacked = verdict(indexing)
    assert json.loads(stacked)["metadata"]["skipped_step_failures"]
    assert stacked == verdict(b.system)
    monkeypatch.setattr(hybrid, "solve", solve_each_sample)
    assert stacked == verdict(indexing) == verdict(b.system)


def direct_route_with_probe_resolve(sys, q, horizon, modes):
    """Reference for ``_direct_route``: the samples solved without the shrunken
    probe and walked point by point, and a strict probe excess confirmed by
    solving the shrunken probe on its own, at most once per mode."""
    grid, n, plan = sys.u0.grid, sys.u0.n, q.sampling
    states = [boundary_probe(grid, n, plan.family, q.lam)]
    for i in range(plan.count):
        rng = np.random.default_rng([plan.seed, i])
        target = float(rng.uniform(0.0, q.lam))
        while target <= 0.0:
            target = float(rng.uniform(0.0, q.lam))
        states.append(sample_initial_state(rng, grid, n, plan.family, target))
    system = sys.replace(u0=f.FuzzyVector.stack(states))
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

    for mode in modes:
        stack = solve(system, mode, horizon)
        skipped += [{"mode": mode.value, "sample": row - 1, "t": stack.failures[row].t}
                    for row in sorted(stack.failures)]
        sample_ids = [row - 1 for row in stack.rows.tolist()]
        stacks.append((mode.value, sample_ids, stack))
        for j, sample_id in enumerate(sample_ids):
            u0 = stack.values[0].take(j)
            for t, state in zip(stack.times.tolist(), stack.values):
                d = f.norm(state.take(j))
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


def _widen_inside_lambda(t, u, lam):  # for lambda = 1
    component = u[0]  # a stack has no components: the solver calls this per sample
    if f.norm(component) < 1.0:
        return f.vector(tri(-1, 0, 1))  # no contractive step exists
    return f.vector(f.scale(0.5, component))


def _probe_witness(prop, mode):
    return lambda got: (got["properties"][prop]["witness"]["sample"] == -1
                        and got["properties"][prop]["witness"]["mode"] == mode)


@pytest.mark.parametrize("system, q, horizon, shows", [
    (catalog.make_example_3_9(GRID, 10.0).system,
     StabilityQuery(lam=1.0, A=2.0, B=1.5, T0=4.0, rho=100.0,
                    sampling=SamplingPlan(count=12, seed=13, family="triangular")), 10.0,
     _probe_witness("practically_stable", "expansive")),
    (catalog.make_crisp_contraction(GRID, 8.0).system, crisp_query(), 8.0,
     lambda got: {"property": "practically_stable", "mode": "expansive", "t": 0.0,
                  "value": 1.0} in got["probe_grazes"]),
    (_integer_system(_wide, 6.0),
     StabilityQuery(lam=0.5, A=1.0, rho=100.0, sampling=SamplingPlan(10, 1, "crisp")), 6.0,
     lambda got: (got["sample_ids"] == [list(range(-1, 10)), []]
                  and {"mode": "contractive", "sample": -1, "t": 0.0}
                  in got["skipped_step_failures"])),
    (catalog.make_crisp_contraction(GRID, 10.0).system, crisp_query(B=0.01, T0=1.0), 10.0,
     _probe_witness("quasi_stable", "contractive")),
    # the probe survives both modes, its shrunken copy only the expansive one;
    # from T0 on, three properties graze at each point
    (_integer_system(_widen_inside_lambda, 4.0),
     StabilityQuery(lam=1.0, A=1.2, B=1.2, T0=3.0, rho=100.0,
                    sampling=SamplingPlan(6, 2, "crisp")), 4.0,
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
     StabilityQuery(lam=1.0, A=1.5, rho=100.0, sampling=SamplingPlan(4, 3, "crisp")), 2.0,
     lambda got: ({"property": "practically_stable", "mode": "expansive", "t": 2.0,
                   "value": 1.5} in got["probe_grazes"]
                  and got["properties"]["practically_stable"]["witness"]["sample"] == 0)),
    # the probe exceeds the bound where its shrunken copy equals it: counted
    (_integer_system(_grow_half, 3.0),
     StabilityQuery(lam=1.0, A=_SHRUNK_AT_1, rho=100.0, sampling=SamplingPlan(4, 3, "crisp")),
     3.0,
     lambda got: (got["properties"]["practically_stable"]["witness"]["t"] == 1.0
                  and got["properties"]["practically_stable"]["witness"]["sample"] == -1)),
], ids=["probe-confirmed", "graze-lambda-equals-A", "probe-fails-contractive", "crisp-family",
        "shrunken-copy-fails", "probe-equals-bound", "shrunken-copy-equals-bound"])
def test_direct_route_equals_the_probe_walk_with_its_own_shrunken_solve(system, q, horizon,
                                                                         shows):
    routes = [stability._direct_route(system, q, horizon, tuple(StepMode)),
              direct_route_with_probe_resolve(system, q, horizon, tuple(StepMode))]
    got, reference = [{"properties": outcomes,
                       "sample_ids": [ids for _, ids, _ in stacks],
                       "trajectories": sum(len(ids) for _, ids, _ in stacks),
                       "skipped_step_failures": skipped,
                       "probe_grazes": grazes} for outcomes, stacks, skipped, grazes in routes]
    assert shows(got)
    assert got == reference
    assert json.dumps(got) == json.dumps(reference)


def test_direct_route_reports_the_first_initial_state_outside_the_ball():
    b = catalog.make_example_3_9(GRID, 10.0)
    sys = b.system.replace(u0=f.vector(tri(-0.1, 0, 0.1)), rho=0.75)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, sampling=SamplingPlan(count=4, seed=1))
    with pytest.raises(ConfigError, match=r"sampled initial state \(distance 1\) lies outside "
                                          r"the validity ball of radius 0.75"):
        check_practical_stability(sys, b.comparison, b.lyapunov, b.kpair, q, 10.0)


# ---------------------------------------------------------------------------
# condition (ii) on stacks against the per-sample check
# ---------------------------------------------------------------------------

def condition_ii_per_sample(V, comp, stacks, tol):
    """Reference: condition (ii) one surviving sample at a time, with V, g and
    psi called on floats and the Dini estimate of ``dini_along_solution``."""
    worst, violations, checked = math.inf, [], 0
    for mode, sample_ids, stack in stacks:
        for j, sample_id in enumerate(sample_ids):
            traj = FuzzyTrajectory(stack.ts, [v.take(j) for v in stack.values])
            for t in traj.times[:-1].tolist():
                k = int(np.searchsorted(comp.switch_times, t, side="right")) - 1
                tk = comp.switch_times[k]
                lhs = dini_along_solution(V, traj, t)
                rhs = comp.g(t, V(t, traj.value_at(t)), comp.psi[k](V(tk, traj.value_at(tk))))
                margin = rhs - lhs
                worst = min(worst, margin)
                checked += 1
                if margin < -tol:
                    violations.append([t, lhs, rhs, mode, sample_id])
    return {"passed": not violations, "checked_steps": checked,
            "worst_margin": worst if checked else None, "violations": violations[:10]}


def dsl_query(config):
    """Bundle, query and horizon of a stability config, as the CLI builds them."""
    parser = configparser.ConfigParser()
    parser.read_string(config)
    cfg = RunConfig({name: dict(parser[name]) for name in parser.sections()},
                    Path("out"), int(parser.get("output", "alpha_levels", fallback="11")), None)
    bundle, horizon, _ = build_bundle(cfg)
    return bundle, build_query(cfg, bundle.system.rho), horizon


def dsl_stacks(config):
    """Bundle and direct-route stacks of a stability config, as the CLI builds them."""
    bundle, q, horizon = dsl_query(config)
    stacks, _, _ = stability._simulate_direct(bundle.system, q, horizon, tuple(StepMode))
    return bundle, stacks


def assert_stacked_check_equals_per_sample_check(V, comp, stacks):
    report = _check_condition_ii(V, comp, stacks, tol=1e-9)
    reference = condition_ii_per_sample(V, comp, stacks, tol=1e-9)
    assert report == reference
    assert json.dumps(report) == json.dumps(reference)  # also tells -0.0 from 0.0
    return report


def test_condition_ii_on_stacks_with_failed_contractive_samples():
    b = catalog.make_example_3_9(GRID, 6.0)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                       sampling=SamplingPlan(count=12, seed=3, family="triangular"))
    stacks, skipped, _ = stability._simulate_direct(b.system, q, 6.0, tuple(StepMode))
    assert [ids for _, ids, _ in stacks] == [list(range(-1, 12)), [-1]] and len(skipped) == 12
    # a V with one value for every sample is broadcast over the stack
    for V in (b.lyapunov, LyapunovFn(lambda t, u: 1.0)):
        report = assert_stacked_check_equals_per_sample_check(V, b.comparison, stacks)
        assert report["checked_steps"] == 6 * 14


@pytest.mark.parametrize("config", ["DSL_STABILITY", "DSL_DENSE_STABILITY"],
                         ids=["gap-two-segments", "dense"])
def test_condition_ii_on_stacks_of_a_dsl_system(config):
    bundle, stacks = dsl_stacks(getattr(test_golden, config))
    assert len(bundle.comparison.switch_times) == 2
    report = assert_stacked_check_equals_per_sample_check(bundle.lyapunov, bundle.comparison,
                                                          stacks)
    assert report["checked_steps"] > 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_condition_ii_overflows_as_silently_as_the_float_path():
    # the states grow past 1e8, so V = d * 1e300 overflows to inf
    config = test_golden.DSL_STABILITY.replace("V = d", "V = d * 1e300").replace(
        "rhs = circminus(u) fadd smul(eta(t), lam)", "rhs = smul(1e9, u)")
    bundle, stacks = dsl_stacks(config)
    report = assert_stacked_check_equals_per_sample_check(bundle.lyapunov, bundle.comparison,
                                                          stacks)
    assert report["worst_margin"] == -math.inf


def test_condition_ii_on_a_stack_whose_samples_all_failed():
    ts = f.integer(5)
    wide = f.vector(tri(-1, 0, 1))
    sys = f.HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: wide,
                              (lambda t, u: f.zero_vector(u.grid, u.n),), 10.0,
                              f.FuzzyVector.stack([f.vector(f.crisp(x, GRID)) for x in (0, 1)]))
    comp = f.ScalarHybridSystem(ts, (0.0,), lambda t, w, wk: w, (lambda v: v,), 1.0)
    failed = solve(sys, StepMode.CONTRACTIVE)
    assert len(failed.rows) == 0
    survived = solve(sys, StepMode.EXPANSIVE)
    for stacks in ([("contractive", [], failed)],
                   [("contractive", [], failed), ("expansive", [0, 1], survived)]):
        report = assert_stacked_check_equals_per_sample_check(norm_lyapunov(), comp, stacks)
        assert report["checked_steps"] == 5 * len(stacks[-1][1])
    assert report["worst_margin"] is not None


def test_condition_ii_reads_V_at_a_switch_time_off_its_stored_point():
    ts = f.integer(8)
    switch_times = (0.0, 4.0 - 1e-12)  # 4.0 up to lookup noise
    sys = f.HybridFuzzySystem(ts, switch_times, lambda t, u, lam: f.add(f.scale(-0.5, u), lam),
                              (lambda t, u: f.zero_vector(u.grid, u.n), lambda t, u: u), 100.0,
                              f.FuzzyVector.stack([f.vector(tri(-1, 0, 1)), f.vector(tri(0, 1, 3))]))
    comp = f.ScalarHybridSystem(ts, switch_times, lambda t, w, wk: -0.5 * w + wk,
                                (lambda v: 0.0 * v, lambda v: 0.5 * v), 1.0)
    traj = solve(sys)
    assert switch_times[1] not in traj.times.tolist()
    calls = []
    V = LyapunovFn(lambda t, u: calls.append(t) or f.norm(u) * (1.0 + t))
    stacks = [("expansive", [0, 1], traj)]
    report = _check_condition_ii(V, comp, stacks, tol=1e-9)
    assert switch_times[1] in calls  # its own V call, not V at 4.0
    assert report == assert_stacked_check_equals_per_sample_check(V, comp, stacks)
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
    bundle, _ = dsl_stacks(config)
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
    monkeypatch.setattr(hybrid, "solve", solve_each_sample)
    assert stacked == verdict()


# ---------------------------------------------------------------------------
# the hypothesis checks drawn into arrays against the per-draw loops
# ---------------------------------------------------------------------------

class SeededScriptedRng(ScriptedRng):
    """Plays back ``values`` to the scalar uniform() calls, then draws every
    value from a seeded generator."""

    def __init__(self, values, seed):
        super().__init__(values)
        self.rng = np.random.default_rng(seed)

    def uniform(self, low, high, size=None):
        if self.values and size is None:
            return super().uniform(low, high)
        return self.rng.uniform(low, high, size)

    def integers(self, low, high):
        return self.rng.integers(low, high)


HYPOTHESIS_TS = f.intervals([[0, 1], [1.5, 2.5]], 0.25)
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

# scalar uniform() draws of one state of each family per component
_DRAWS_PER_COMPONENT = {"crisp": 1, "triangular": 3, "trapezoid": 4}


def assert_same_report(got, want):
    assert got == want
    assert json.dumps(got) == json.dumps(want)  # also tells -0.0 from 0.0


@given(seed=st.integers(0, 2 ** 32 - 1), family=st.sampled_from(sorted(_DRAWS_PER_COMPONENT)),
       n=st.sampled_from([1, 3]), V=st.sampled_from(sorted(LYAPUNOV)),
       kpair=st.sampled_from(sorted(KPAIRS)), scripted=st.booleans())
@example(seed=2, family="crisp", n=1, V="signed-zero", kpair="zero", scripted=False)
@example(seed=2, family="triangular", n=3, V="dsl", kpair="nan-above-0.5", scripted=True)
@settings(max_examples=30, deadline=None)
def test_stacked_sandwich_and_lipschitz_equal_the_per_draw_loops(seed, family, n, V, kpair,
                                                                 scripted):
    V, kpair = LYAPUNOV[V], KPAIRS[kpair]
    # scripted: the first state drawn (after its target 0.75) is nearly zero
    # (1e-12 and zeros) and is redrawn
    values = [0.75, 1e-12] + [0.0] * (_DRAWS_PER_COMPONENT[family] * n - 1) if scripted else []
    for check, reference, args in [
        (stability._check_sandwich, oracles.check_sandwich,
         lambda rng: (V, kpair, HYPOTHESIS_TS, GRID, n, family, 2.0, rng, 40, 1e-9)),
        (stability._check_lipschitz, oracles.check_lipschitz,
         lambda rng: (V, HYPOTHESIS_TS, GRID, n, family, 2.0, rng, 40)),
    ]:
        rngs = [SeededScriptedRng(values, seed) for _ in range(2)]
        got = check(*args(rngs[0]))
        with np.errstate(invalid="ignore"):  # inf - inf in the float loop
            want = reference(*args(rngs[1]))
        assert_same_report(got, want)
        assert not rngs[0].values  # every scripted value was drawn


_G = {
    "dsl-contraction": "(-r + v)/(1 + mu(t))",
    "dsl-decreasing-in-r": "(v - 3 * r) / mu(t)",
    "dsl-decreasing-in-v": "r - v * mu(t)",
    "dsl-zero": "0",
}
_PSI = {"dsl-identity": "v", "dsl-folded": "abs(v - 1)", "dsl-constant": "2"}


@given(seed=st.integers(0, 2 ** 32 - 1), g=st.sampled_from(sorted(_G) + ["catalog"]),
       psi=st.sampled_from(sorted(_PSI)), samples=st.integers(1, 120))
@settings(max_examples=40, deadline=None)
def test_stacked_monotonicity_equals_the_per_draw_loop(seed, g, psi, samples):
    ts = HYPOTHESIS_TS
    if g == "catalog":
        g = lambda t, w, w_k: (w + w_k) / (1.0 + ts.mu(t))  # noqa: E731
    else:
        g = dsl.compile_expr(dsl.parse_scalar(_G[g]), ("t", "r", "v"), ts=ts)
    psi = dsl.compile_expr(dsl.parse_scalar(_PSI[psi]), ("v",), ts=ts)
    comp = f.ScalarHybridSystem(ts, (0.0, 1.5), g, (psi, psi), 1.0)
    got = cmp.check_monotonicity_hypothesis(comp, samples=samples, seed=seed, box=(0.0, 4.0))
    want = oracles.check_monotonicity(comp, samples=samples, seed=seed, box=(0.0, 4.0))
    assert got == want
    assert_same_report(got.to_dict(), want.to_dict())


def test_hypothesis_checks_call_V_g_and_psi_once_per_layer(monkeypatch):
    b = catalog.make_example_3_9(GRID, 10.0)
    calls = {"V": 0, "g": 0, "psi": 0, "checked states": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(fuzzy, "_check", counted("checked states", fuzzy._check))
    V = LyapunovFn(counted("V", b.lyapunov), lipschitz=1.0)
    comp = b.comparison.replace(g=counted("g", b.comparison.g),
                                psi=tuple(counted("psi", p) for p in b.comparison.psi))
    seen = []
    for samples in (10, 40):
        for name in calls:
            calls[name] = 0
        rng = np.random.default_rng(samples)
        stability._check_sandwich(V, b.kpair, b.system.ts, GRID, 1, "trapezoid", 2.0, rng,
                                  samples, 1e-9)
        assert calls["V"] == 1
        stability._check_lipschitz(V, b.system.ts, GRID, 1, "trapezoid", 2.0, rng, samples)
        assert calls["V"] <= 1 + 2
        cmp.check_monotonicity_hypothesis(comp, samples=samples, seed=samples)
        assert calls["g"] <= 4 and calls["psi"] <= 2 * len(comp.psi)
        seen.append(dict(calls))
    assert seen[0] == seen[1]  # one stack per check, whatever the sample count
    assert seen[0]["checked states"] <= 2


def test_sandwich_V_with_mu_still_raises_at_the_terminal_point(tmp_path, capsys):
    # the sandwich draws t from every point, the terminal one included
    cfg = tmp_path / "mu.cfg"
    cfg.write_text(test_golden.DSL_STABILITY.replace(
        "V = d", "V = max(d, pow(d, 2)) / (1 + mu(t))"))
    assert main(["stability", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 2
    assert capsys.readouterr().err == "error: t=2.5 is the terminal point at line 1, column 26\n"
