from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzzyts as f
from fuzzyts import catalog
from fuzzyts.cli import RunConfig, build_dsl_bundle
from fuzzyts.comparison import ScalarHybridSystem
from fuzzyts.errors import InvalidShapeError, StepFailureError
from fuzzyts.hukuhara import delta_h_derivative
from fuzzyts.hybrid import HybridFuzzySystem, StepMode, build_example_system, solve
from fuzzyts.stability import sample_initial_state

import oracles

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def tri(a, b, c):
    return f.make_triangle(a, b, c, GRID)


def zero_map(t_k, u_k):
    return f.zero_vector(u_k.grid, u_k.n)


def test_zero_dynamics_constant_trajectory():
    ts = f.integer(6)
    sys = HybridFuzzySystem(
        ts, (0.0,), lambda t, u, lam: f.zero_vector(u.grid, u.n), (zero_map,),
        rho=10.0, u0=f.vector(tri(-1, 0, 1)))
    traj = solve(sys)
    for v in traj.values:
        assert f.dist(v, sys.u0) <= TOL


def test_example_system_crisp_halving():
    sys = build_example_system(GRID, 1, 12, u0=f.vector(f.crisp(1.0, GRID)))
    traj = solve(sys, horizon=12.0)
    expected = oracles.contraction_sequence(1.0, 12)
    for i, x in enumerate(expected):
        assert traj.values[i][0].crisp_value() == pytest.approx(x, abs=TOL)
    assert traj.values[1][0].crisp_value() == pytest.approx(0.5, abs=TOL)
    assert traj.values[2][0].crisp_value() == pytest.approx(0.25, abs=TOL)


def test_example_system_triangular_widths():
    sys = build_example_system(GRID, 1, 12)
    traj = solve(sys, horizon=12.0)
    assert f.dist(traj.values[1], f.vector(tri(-1.5, 0, 1.5))) <= TOL
    assert f.dist(traj.values[2], f.vector(tri(-2.25, 0, 2.25))) <= TOL
    dists = [f.norm(v) for v in traj.values]
    for w, d in zip(oracles.expansive_width_sequence(1.0, 12), dists):
        assert d == pytest.approx(w, abs=1e-9)


def test_example_system_eta_is_half():
    sys = build_example_system(GRID, 1, 5)
    ts = sys.ts
    for t in ts.kappa_points():
        assert 1.0 / (1.0 + ts.mu(float(t))) == pytest.approx(0.5, abs=TOL)


def test_example_second_segment_fixed_point():
    # crisp start; on segment k >= 1 the recursion x(t+1) = x/2 + x_k/2 -> x_k
    sys = build_example_system(GRID, 3, 10, u0=f.vector(f.crisp(1.0, GRID)))
    traj = solve(sys, horizon=40.0)
    x = lambda t: traj.value_at(float(t))[0].crisp_value()
    x10 = x(10)
    def affine(x0, xk, steps):
        v = x0
        for _ in range(steps):
            v = 0.5 * v + 0.5 * xk
        return v
    for s in range(11):
        assert x(10 + s) == pytest.approx(affine(x10, x10, s), abs=TOL)
    # the fixed point of segment 1 is the handoff value itself
    assert x(20) == pytest.approx(x10, abs=TOL)


def test_boundary_point_belongs_to_both_segments():
    sys = build_example_system(GRID, 2, 5, u0=f.vector(f.crisp(1.0, GRID)))
    traj = solve(sys, horizon=15.0)
    assert traj.segments[4] == 0
    assert traj.segments[5] == 1  # handoff point labeled by the new segment
    # value at the boundary comes from stepping segment 0
    assert traj.value_at(5.0)[0].crisp_value() == pytest.approx(2.0 ** -5, abs=TOL)


def test_segment_consistency_frozen_subsystem():
    sys = build_example_system(GRID, 2, 5)
    traj = solve(sys, horizon=15.0)
    # rebuild segment 1 as a standalone frozen-switch system from u_1
    ts = sys.ts
    u1 = traj.value_at(5.0)
    lam1 = sys.switch_maps[1](5.0, u1)
    sub_ts = f.explicit(ts.points[5:11])
    sub = HybridFuzzySystem(sub_ts, (5.0,), sys.rhs,
                            (lambda t_k, u_k: lam1,), sys.rho, u1)
    sub_traj = solve(sub, horizon=10.0)
    for off in range(6):
        assert f.dist(sub_traj.values[off], traj.value_at(5.0 + off)) <= TOL


def test_expansive_width_nondecreasing():
    sys = build_example_system(GRID, 2, 5)
    traj = solve(sys, horizon=15.0)
    widths = [v[0].upper[0] - v[0].lower[0] for v in traj.values]
    assert all(b >= a - TOL for a, b in zip(widths, widths[1:]))


def max_derivative_residual(sys, traj):
    """Largest gap between the trajectory's delta derivative and the right-hand
    side, with the switch value re-frozen at each segment's first point."""
    frozen = {}
    gaps = []
    for i in range(len(traj) - 1):
        t = float(traj.times[i])
        k = traj.segments[i]
        if k not in frozen:
            t_k = sys.switch_times[k]
            frozen[k] = sys.switch_maps[k](t_k, traj.value_at(t_k))
        deriv = delta_h_derivative(traj, t)
        assert deriv is not None
        gaps.append(f.dist(deriv, sys.rhs(t, traj.values[i], frozen[k])))
    return max(gaps)


def test_derivative_residuals_vanish():
    sys = build_example_system(GRID, 2, 5)
    traj = solve(sys, StepMode.EXPANSIVE, horizon=15.0)
    assert max_derivative_residual(sys, traj) <= 1e-9
    # the contractive branch exists on the first segment only
    traj = solve(sys, StepMode.CONTRACTIVE, horizon=5.0)
    assert max_derivative_residual(sys, traj) <= 1e-9


def test_contractive_mode_shrinks_example():
    sys = build_example_system(GRID, 1, 10)
    traj = solve(sys, StepMode.CONTRACTIVE, horizon=10.0)
    assert f.dist(traj.values[1], f.vector(tri(-0.5, 0, 0.5))) <= TOL
    assert f.dist(traj.values[2], f.vector(tri(-0.25, 0, 0.25))) <= TOL


def test_contractive_step_failure_carries_time():
    ts = f.integer(5)
    wide = f.vector(tri(-1, 0, 1))
    sys = HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: wide, (zero_map,),
                            rho=10.0, u0=f.vector(f.crisp(0.0, GRID)))
    with pytest.raises(StepFailureError) as err:
        solve(sys, StepMode.CONTRACTIVE)
    assert err.value.t == 0.0
    # the expansive branch of the same system is fine
    solve(sys, StepMode.EXPANSIVE)


def test_initial_state_outside_ball_rejected():
    ts = f.integer(4)
    with pytest.raises(InvalidShapeError):
        HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: u, (zero_map,),
                          rho=0.5, u0=f.vector(f.crisp(1.0, GRID)))


def fuzzy_system(ts, switch_times, n_maps):
    return HybridFuzzySystem(ts, switch_times, lambda t, u, lam: u, (zero_map,) * n_maps,
                             rho=10.0, u0=f.vector(f.crisp(0.0, GRID)))


def scalar_system(ts, switch_times, n_maps):
    return ScalarHybridSystem(ts, switch_times, lambda t, r, v: 0.0,
                              (lambda v: v,) * n_maps, r0=0.0)


@pytest.mark.parametrize("build", [fuzzy_system, scalar_system], ids=["fuzzy", "scalar"])
@pytest.mark.parametrize("switch_times, n_maps, error", [
    ((), 0, InvalidShapeError),
    ((0.0, 2.0, 2.0), 3, InvalidShapeError),
    ((0.0, 2.5), 2, f.UnknownPointError),
    ((1.0, 2.0), 2, InvalidShapeError),
    ((0.0, 2.0), 1, InvalidShapeError),
], ids=["empty", "not-increasing", "not-stored", "not-t0", "map-count"])
def test_switch_time_validation(build, switch_times, n_maps, error):
    with pytest.raises(error):
        build(f.integer(4), switch_times, n_maps)
    build(f.integer(4), (0.0, 2.0), 2)  # the valid schedule is accepted


def test_switch_map_called_once_per_segment():
    calls = []

    def counting_map(t_k, u_k):
        calls.append(t_k)
        return f.zero_vector(u_k.grid, u_k.n)

    ts = f.integer(9)
    sys = HybridFuzzySystem(ts, (0.0, 3.0, 6.0),
                            lambda t, u, lam: f.scale(-0.5, u),
                            (counting_map,) * 3, rho=10.0,
                            u0=f.vector(f.crisp(1.0, GRID)))
    solve(sys, horizon=9.0)
    assert calls == [0.0, 3.0, 6.0]


def test_crisp_systems_match_real_euler_oracle():
    rng = np.random.default_rng(123)
    for trial in range(25):
        n_switch = int(rng.integers(1, 4))
        gap = int(rng.integers(2, 5))
        horizon = n_switch * gap + int(rng.integers(1, 4))
        ts = f.integer(horizon)
        switch_times = tuple(float(k * gap) for k in range(n_switch))
        a, b, c = rng.uniform(-0.6, 0.6, 3)
        d0, d1 = rng.uniform(-1, 1, 2)

        def rhs(t, u, lam):
            x = u[0].crisp_value()
            l = lam[0].crisp_value()
            return f.vector(f.crisp(a * x + b * l + c, GRID))

        def switch(t_k, u_k):
            return f.vector(f.crisp(d0 * u_k[0].crisp_value() + d1, GRID))

        x0 = float(rng.uniform(-2, 2))
        sys = HybridFuzzySystem(ts, switch_times, rhs, (switch,) * n_switch,
                                rho=1e6, u0=f.vector(f.crisp(x0, GRID)))
        traj = solve(sys, horizon=float(horizon))
        expected = oracles.hybrid_euler_crisp(
            ts.points, list(switch_times),
            lambda t, x, l: a * x + b * l + c,
            [lambda tk, xk: d0 * xk + d1] * n_switch, x0)
        for i, x in enumerate(expected):
            assert traj.values[i][0].crisp_value() == pytest.approx(x, abs=TOL)


# ---------------------------------------------------------------------------
# stacked solves: every sample of a stack at once
# ---------------------------------------------------------------------------

def ghsub_dsl_system():
    """Two-component DSL system whose ghsub fails for some states only."""
    sections = {
        "timescale": {"scale": "intervals([[0,1],[1.5,2.5]], 0.25)"},
        "system": {"rhs": "ghsub(smul(0.5, u), lam) fadd crisp(0.1)",
                   "lambda_0": "trap(-0.5,-0.2,0.2,0.5)", "lambda_k": "u_k",
                   "switch_times": "0 1.5", "u0": "tri(-1,0,1) | tri(-0.5,0,0.5)"},
    }
    return build_dsl_bundle(RunConfig(sections, Path("out"), GRID.m, None), GRID, 2.5, 100.0).system


SYSTEMS = {
    "example_3_9": lambda: catalog.make_example_3_9(GRID, 12.0).system,
    "dsl-ghsub": ghsub_dsl_system,
}


def stacked_rows(traj):
    """(row of the initial stack, its states) of every sample that survived."""
    return [(row, [v.take(j) for v in traj.values]) for j, row in enumerate(traj.rows)]


def assert_rows_equal_single_solves(sys, states, mode):
    """Each row of the stacked solve is the single-state solve of its state:
    bit-equal values, or a failure at the same t with the same cause."""
    stacked = solve(sys.replace(u0=f.FuzzyVector.stack(states)), mode)
    survivors = iter(stacked_rows(stacked))
    for i, u0 in enumerate(states):
        try:
            single = solve(sys.replace(u0=u0), mode)
        except StepFailureError as exc:
            got = stacked.failures[i]
            assert (got.t, str(got), type(got.__cause__)) == (exc.t, str(exc), type(exc.__cause__))
            continue
        row, values = next(survivors)
        assert row == i and i not in stacked.failures
        assert stacked.segments == single.segments
        assert [(v.lower.tobytes(), v.upper.tobytes()) for v in values] == \
            [(v.lower.tobytes(), v.upper.tobytes()) for v in single.values]
    assert next(survivors, None) is None
    return stacked


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
       family=st.sampled_from(["crisp", "triangular", "trapezoid"]),
       mode=st.sampled_from(list(StepMode)), target=st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_stacked_solve_rows_equal_single_state_solves(system, seeds, family, mode, target):
    sys = SYSTEMS[system]()
    states = [sample_initial_state(np.random.default_rng(s), GRID, sys.u0.n, family, target)
              for s in seeds]
    assert_rows_equal_single_solves(sys, states, mode)


def test_stacked_solve_keeps_survivors_of_a_partly_failed_step():
    sys = ghsub_dsl_system()
    states = [sample_initial_state(np.random.default_rng(s), GRID, 2, "trapezoid", 0.9)
              for s in range(20)]
    stacked = assert_rows_equal_single_solves(sys, states, StepMode.EXPANSIVE)
    # failures inside the right-hand side, at several instants, and survivors
    assert 0 < len(stacked.rows) < len(states)
    assert len({exc.t for exc in stacked.failures.values()}) > 1
    assert all(isinstance(exc.__cause__, f.GHDifferenceError)
               for exc in stacked.failures.values())
    assert [v.samples for v in stacked.values] == [len(stacked.rows)] * len(stacked)


def test_rows_failing_in_different_kernels_of_one_step_keep_their_own_errors():
    # rhs = gh(h(2u, P), Q): each row fails in another kernel of it, or in none
    P = Q = f.vector(tri(-1, 0, 1))
    calls = []

    def rhs(t, u, lam):
        calls.append(u.samples)
        return f.gh_difference(f.h_difference(f.scale(2.0, u), P), Q)

    states = [f.vector(f.make_trapezoid(-1, -0.5, 0.5, 1, GRID)),    # gH difference, in gh
              f.vector(f.make_trapezoid(-2, -1, 1, 2, GRID)),        # no failure
              f.vector(f.make_trapezoid(-1, -0.75, 0.75, 1, GRID)),  # not nested, in h
              f.vector(f.crisp(1e308, GRID)),                        # overflow, in scale
              f.vector(f.crisp(0.0, GRID))]                          # lower > upper, in h
    sys = HybridFuzzySystem(f.integer(2), (0.0,), rhs, (zero_map,), rho=1.7e308, u0=states[1])
    stacked = assert_rows_equal_single_solves(sys, states, StepMode.EXPANSIVE)
    assert calls[:5] == [5, 4, 2, 1, 1]  # each retry drops the rows its kernel flagged
    assert stacked.rows.tolist() == [1] and {exc.t for exc in stacked.failures.values()} == {0.0}
    assert {row: str(exc.__cause__) for row, exc in stacked.failures.items()} == {
        0: "gH difference does not exist: cuts are not nested",
        2: "alpha cuts are not nested",
        3: "endpoints must be finite",
        4: "lower endpoint exceeds upper endpoint"}


def test_a_step_with_failed_rows_steps_the_survivors_as_one_stack(monkeypatch):
    sys = catalog.make_example_3_9(GRID, 12.0).system
    calls, unstacked = [], []

    def rhs(t, u, lam):
        calls.append(u.samples)
        return sys.rhs(t, u, lam)

    unstack = f.FuzzyVector.unstack
    monkeypatch.setattr(f.FuzzyVector, "unstack", lambda u: unstacked.append(u) or unstack(u))
    states = [sample_initial_state(np.random.default_rng(s), GRID, 1,
                                   ("crisp", "triangular")[s % 2], 0.9) for s in range(40)]
    traj = solve(sys.replace(rhs=rhs, u0=f.FuzzyVector.stack(states)),
                 StepMode.CONTRACTIVE, 12.0)
    failed_steps = {exc.t for exc in traj.failures.values()}
    assert len(traj.rows) and failed_steps  # rows fail and rows survive
    assert None not in calls and unstacked == []
    assert len(calls) <= len(traj) - 1 + len(failed_steps)


def test_stacked_solve_with_every_sample_failed():
    ts = f.integer(5)
    wide = f.vector(tri(-1, 0, 1))
    sys = HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: wide, (zero_map,), rho=10.0,
                            u0=f.FuzzyVector.stack([f.vector(f.crisp(x, GRID)) for x in (0, 1)]))
    stacked = solve(sys, StepMode.CONTRACTIVE)
    assert sorted(stacked.failures) == [0, 1] and stacked.failures[1].t == 0.0
    assert stacked_rows(stacked) == [] and len(stacked.rows) == 0


def test_stacked_initial_states_must_each_lie_in_the_ball():
    inside, outside = f.vector(f.crisp(0.25, GRID)), f.vector(f.crisp(1.0, GRID))
    with pytest.raises(InvalidShapeError, match="validity ball"):
        HybridFuzzySystem(f.integer(4), (0.0,), lambda t, u, lam: u, (zero_map,), rho=0.5,
                          u0=f.FuzzyVector.stack([inside, outside]))


# ---------------------------------------------------------------------------
# cost: add and scale test their results for finiteness only
# ---------------------------------------------------------------------------

def full_checks_per_step(monkeypatch, sys, mode, horizons=(1.0, 4.0)):
    """Full endpoint checks per solver step, taken between two horizons on
    the first segment so that switch maps add nothing."""
    calls = []
    check = f.fuzzy._check
    monkeypatch.setattr(f.fuzzy, "_check", lambda lo, up: calls.append(1) or check(lo, up))
    counts = []
    for horizon in horizons:
        calls.clear()
        solve(sys, mode, horizon)
        counts.append(len(calls))
    return (counts[1] - counts[0]) / (horizons[1] - horizons[0])


def test_expansive_steps_of_an_exact_state_make_no_full_check(monkeypatch):
    """Every stored state is exact, also one built from slack: the core of
    tri(-0.3,0.1,0.9) rounds 5.6e-17 out of order."""
    sections = {
        "timescale": {"scale": "integer(20)"},
        "system": {"rhs": "smul(-0.5, u) fadd smul(0.25, lam)",
                   "lambda_0": "trap(-0.5,-0.2,0.2,0.5)", "lambda_k": "u_k",
                   "switch_times": "0 10", "u0": "tri(-1,0,1) | trap(-2,-1,0,1)"},
    }
    sys = build_dsl_bundle(RunConfig(sections, Path("out"), GRID.m, None), GRID, 20.0, 100.0).system
    assert full_checks_per_step(monkeypatch, sys, StepMode.EXPANSIVE) == 0
    slack = catalog.make_example_3_9(GRID, 12.0, u0=f.vector(tri(-0.3, 0.1, 0.9))).system
    assert full_checks_per_step(monkeypatch, slack, StepMode.EXPANSIVE) == 0


def test_contractive_steps_make_one_full_check(monkeypatch):
    for u0 in (None, f.vector(tri(-0.3, 0.1, 0.9))):
        sys = catalog.make_example_3_9(GRID, 12.0, u0=u0).system
        assert full_checks_per_step(monkeypatch, sys, StepMode.CONTRACTIVE) == 1  # h_difference
