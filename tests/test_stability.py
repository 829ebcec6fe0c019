import dataclasses
import json

import numpy as np
import pytest

import fuzzyts as f
from fuzzyts import catalog, hybrid, stability
from fuzzyts.errors import ConfigError, StepFailureError
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

    sys = f.HybridFuzzySystem(ts, switch_times, lambda t, u, lam: f.scale(-0.5, u),
                              (hold_zero, lambda t, u: u), 100.0, f.vector(tri(-1, 0, 1)))
    comp = f.ScalarHybridSystem(ts, switch_times, lambda t, w, wk: -0.5 * w,
                                (lambda v: v, lambda v: v), 1.0)
    trajs = [("expansive", 0, solve(sys, horizon=float(ts.points[10]))),
             ("expansive", 1, solve(sys))]
    calls = []
    V = LyapunovFn(lambda t, u: calls.append(t) or f.norm(u))
    report = _check_condition_ii(V, comp, trajs, tol=1e-9)
    assert report["checked_steps"] == 10 + 12
    assert len(calls) <= sum(len(traj) for _, _, traj in trajs)


def test_stability_check_solves_each_mode_at_most_twice(monkeypatch):
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
    assert len(calls) <= 2 * 2  # per mode: the stack and the shrunken probe


def test_witnesses_are_built_only_for_reported_properties(monkeypatch):
    built = []
    init = stability.Witness.__init__
    monkeypatch.setattr(stability.Witness, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
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
            survivors[row] = real_solve(dataclasses.replace(sys, u0=u0), mode, horizon)
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
    indexing = dataclasses.replace(b.system, rhs=rhs, switch_maps=maps)
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


def test_direct_route_reports_the_first_initial_state_outside_the_ball():
    b = catalog.make_example_3_9(GRID, 10.0)
    sys = dataclasses.replace(b.system, u0=f.vector(tri(-0.1, 0, 0.1)), rho=0.75)
    q = StabilityQuery(lam=1.0, A=2.0, rho=100.0, sampling=SamplingPlan(count=4, seed=1))
    with pytest.raises(ConfigError, match=r"sampled initial state \(distance 1\) lies outside "
                                          r"the validity ball of radius 0.75"):
        check_practical_stability(sys, b.comparison, b.lyapunov, b.kpair, q, 10.0)
