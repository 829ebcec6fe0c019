import json

import numpy as np
import pytest

import fuzzyts as f
from fuzzyts import catalog
from fuzzyts.errors import ConfigError
from fuzzyts.hukuhara import FuzzyTrajectory, delta_h_derivative
from fuzzyts.hybrid import StepMode, solve
from fuzzyts.stability import (
    HOLDS,
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


def test_sampler_is_deterministic_under_seed():
    a = sample_initial_state(np.random.default_rng(42), GRID, 1, "triangular", 0.7)
    b = sample_initial_state(np.random.default_rng(42), GRID, 1, "triangular", 0.7)
    assert f.vec_dist(a, b) == 0.0


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
