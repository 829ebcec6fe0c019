import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

import fuzzyts as f
from fuzzyts import catalog, hybrid, stability
from fuzzyts.cli import RunConfig, build_dsl_bundle, parse_timescale_spec
from fuzzyts.comparison import ScalarHybridSystem, solve_comparison
from fuzzyts.errors import InvalidShapeError, StepFailureError
from fuzzyts.hukuhara import delta_h_derivative
from fuzzyts.hybrid import HybridFuzzySystem, StepMode, build_example_system, solve

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
    ((0.0, 2.0, 2.0 + 1e-12), 3, InvalidShapeError),
    ((0.0, 2.5), 2, f.UnknownPointError),
    ((1.0, 2.0), 2, InvalidShapeError),
    ((0.0, 2.0), 1, InvalidShapeError),
], ids=["empty", "not-increasing", "one-point-twice", "not-stored", "not-t0", "map-count"])
def test_switch_time_validation(build, switch_times, n_maps, error):
    with pytest.raises(error):
        build(f.integer(4), switch_times, n_maps)
    build(f.integer(4), (0.0, 2.0), 2)  # the valid schedule is accepted


@pytest.mark.parametrize("build", [fuzzy_system, scalar_system], ids=["fuzzy", "scalar"])
def test_a_switch_time_is_held_as_the_stored_point_it_names(build):
    ts = f.uniform(0.0, 0.3, 10)
    stored = float(ts.points[3])  # 0.8999999999999999, which 0.9 names
    sys = build(ts, (0.0, 0.9), 2)
    assert sys.switch_times == (0.0, stored) and stored != 0.9
    solution = solve(sys) if build is fuzzy_system else solve_comparison(sys)
    assert list(solution.segments) == [0] * 3 + [1] * 8


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
    return build_dsl_bundle(RunConfig(sections, Path("out"), GRID.m, None), GRID, 100.0).system


SYSTEMS = {
    "example_3_9": lambda: catalog.make_example_3_9(GRID, 12.0).system,
    "dsl-ghsub": ghsub_dsl_system,
}


class StackedMarch:
    """``hybrid.stacked_states`` collected: the segment of every point, each
    row's states up to the last point it reached, the rows that reached the
    horizon and the failures by row."""

    def __init__(self, sys, mode, horizon=None):
        self.segments, self.paths, self.failures = [], {}, {}
        for _, k, rows, u in hybrid.stacked_states(sys, mode, horizon, self.failures):
            self.segments.append(k)
            for j, row in enumerate(rows.tolist()):
                self.paths.setdefault(row, []).append(u.take(j))
        self.rows = [row for row in sorted(self.paths) if row not in self.failures]


def assert_rows_equal_single_solves(sys, states, mode):
    """Each row of the stacked march is the single-state solve of its state:
    bit-equal values, or a failure at the same t with the same cause."""
    stacked = StackedMarch(sys.replace(u0=oracles.stack(states)), mode)
    for i, u0 in enumerate(states):
        try:
            single = solve(sys.replace(u0=u0), mode)
        except StepFailureError as exc:
            got = stacked.failures[i]
            assert (got.t, str(got), type(got.__cause__)) == (exc.t, str(exc), type(exc.__cause__))
            assert len(stacked.paths[i]) == sys.ts.index_of(exc.t) + 1
            continue
        assert i in stacked.rows and i not in stacked.failures
        assert stacked.segments == single.segments
        assert [(v.lower.tobytes(), v.upper.tobytes()) for v in stacked.paths[i]] == \
            [(v.lower.tobytes(), v.upper.tobytes()) for v in single.values]
    assert sorted(stacked.paths) == list(range(len(states)))
    return stacked


@pytest.mark.parametrize("system", sorted(SYSTEMS))
@given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=8),
       family=st.sampled_from(["crisp", "triangular", "trapezoid"]),
       mode=st.sampled_from(list(StepMode)), target=st.floats(0.05, 2.0))
@settings(max_examples=40, deadline=None)
def test_stacked_solve_rows_equal_single_state_solves(system, seeds, family, mode, target):
    sys = SYSTEMS[system]()
    states = [oracles.sample_states(np.random.default_rng(s), GRID, sys.u0.n, family, target)[0]
              for s in seeds]
    assert_rows_equal_single_solves(sys, states, mode)


def test_stacked_solve_keeps_survivors_of_a_partly_failed_step():
    sys = ghsub_dsl_system()
    states = oracles.sample_states(np.random.default_rng(0), GRID, 2, "trapezoid", 0.9, 20)
    stacked = assert_rows_equal_single_solves(sys, states, StepMode.EXPANSIVE)
    # failures inside the right-hand side, at several instants, and survivors
    assert 0 < len(stacked.rows) < len(states)
    assert len({exc.t for exc in stacked.failures.values()}) > 1
    assert all(isinstance(exc.__cause__, f.GHDifferenceError)
               for exc in stacked.failures.values())
    assert all(len(stacked.paths[row]) == len(stacked.segments) for row in stacked.rows)


def test_stacked_states_name_the_live_rows_and_record_failures_as_they_happen():
    sys = ghsub_dsl_system()
    states = oracles.sample_states(np.random.default_rng(0), GRID, 2, "trapezoid", 0.9, 20)
    paths = []  # each sample's states along its own march, up to its failure
    for u0 in states:
        paths.append([])
        try:
            for _, _, u in hybrid.states(sys.replace(u0=u0), StepMode.EXPANSIVE):
                paths[-1].append(u)
        except StepFailureError:
            pass
    stacked = sys.replace(u0=oracles.stack(states))
    failures = {}
    march = hybrid.stacked_states(stacked, StepMode.EXPANSIVE, None, failures)
    for i, (t, k, rows, u) in enumerate(march):
        assert (t, k) == (float(sys.ts.points[i]), int(sys.schedule.segments[i]))
        assert rows.tolist() == [row for row, path in enumerate(paths) if len(path) > i]
        assert sorted(failures) == [row for row, path in enumerate(paths) if len(path) <= i]
        for j, row in enumerate(rows.tolist()):
            assert u.take(j).lower.tobytes() == paths[row][i].lower.tobytes()
            assert u.take(j).upper.tobytes() == paths[row][i].upper.tobytes()
    assert 0 < len(failures) < len(states)
    assert {row: float(sys.ts.points[len(paths[row]) - 1]) for row in failures} == {
        row: exc.t for row, exc in failures.items()}
    # a stacked solve reads each point's stack while a row is live
    read, solved = [], {}
    march = solve(stacked, StepMode.EXPANSIVE, read=lambda t, u: read.append(t) or f.norm(u),
                  failures=solved)
    assert read == sys.ts.points.tolist() and solved.keys() == failures.keys()
    assert [(rows.tolist(), d.tolist()) for rows, d in march] == [
        (rows, [f.norm(paths[row][i]) for row in rows])
        for i, rows in enumerate([row for row, path in enumerate(paths) if len(path) > i]
                                 for i in range(len(sys.ts)))]
    with pytest.raises(TypeError, match="a stacked u0 needs read and failures"):
        solve(stacked)


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
    assert stacked.rows == [1] and {exc.t for exc in stacked.failures.values()} == {0.0}
    assert {row: str(exc.__cause__) for row, exc in stacked.failures.items()} == {
        0: "gH difference does not exist: cuts are not nested",
        2: "alpha cuts are not nested",
        3: "endpoints must be finite",
        4: "lower endpoint exceeds upper endpoint"}


def test_a_step_with_failed_rows_steps_the_survivors_as_one_stack():
    sys = catalog.make_example_3_9(GRID, 12.0).system
    calls = []

    def rhs(t, u, lam):
        calls.append(u.samples)
        return sys.rhs(t, u, lam)

    states = [oracles.sample_states(np.random.default_rng(s), GRID, 1,
                                    ("crisp", "triangular")[s % 2], 0.9)[0] for s in range(40)]
    march = StackedMarch(sys.replace(rhs=rhs, u0=oracles.stack(states)),
                         StepMode.CONTRACTIVE, 12.0)
    failed_steps = {exc.t for exc in march.failures.values()}
    assert len(march.rows) and failed_steps  # rows fail and rows survive
    assert None not in calls
    assert len(calls) <= len(march.segments) - 1 + len(failed_steps)


def test_stacked_solve_with_every_sample_failed():
    ts = f.integer(5)
    wide = f.vector(tri(-1, 0, 1))
    sys = HybridFuzzySystem(ts, (0.0,), lambda t, u, lam: wide, (zero_map,), rho=10.0,
                            u0=oracles.stack([f.vector(f.crisp(x, GRID)) for x in (0, 1)]))
    stacked = StackedMarch(sys, StepMode.CONTRACTIVE)
    assert sorted(stacked.failures) == [0, 1] and stacked.failures[1].t == 0.0
    assert stacked.rows == [] and len(stacked.segments) == len(ts)  # an emptied stack idles


def _rejects_at_1(t, u, lam):
    """Acts on the stack at t=0; at t=1 fails naming a row no stack of two has."""
    if t == 1.0:
        error = InvalidShapeError("computed on another stack")
        error.rows = {2: InvalidShapeError("computed on another stack")}
        raise error
    return f.scale(0.5, u)


@pytest.mark.parametrize("rhs, maps, t", [
    (lambda t, u, lam: f.vector(u[0]), (zero_map,), 0.0),
    (lambda t, u, lam: lam, (lambda t_k, u_k: f.vector(u_k[0]),), 0.0),
    (_rejects_at_1, (zero_map,), 1.0),
], ids=["rhs-indexes-components", "switch-map-indexes-components", "rows-outside-the-stack"])
def test_a_step_that_rejects_the_stack_as_a_whole_fails_the_solve(rhs, maps, t):
    u0 = oracles.stack([f.vector(f.crisp(x, GRID)) for x in (0.0, 0.5)])
    sys = HybridFuzzySystem(f.integer(3), (0.0,), rhs, maps, rho=10.0, u0=u0)
    for mode in StepMode:
        with pytest.raises(StepFailureError) as failed:
            solve(sys, mode, read=lambda t, u: u, failures={})
        assert failed.value.t == t and isinstance(failed.value.__cause__, InvalidShapeError)
        assert str(failed.value) == f"{mode.value} step failed at t={t}: {failed.value.__cause__}"


def test_stacked_initial_states_must_each_lie_in_the_ball():
    inside, outside = f.vector(f.crisp(0.25, GRID)), f.vector(f.crisp(1.0, GRID))
    with pytest.raises(InvalidShapeError, match="validity ball"):
        HybridFuzzySystem(f.integer(4), (0.0,), lambda t, u, lam: u, (zero_map,), rho=0.5,
                          u0=oracles.stack([inside, outside]))


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
    sys = build_dsl_bundle(RunConfig(sections, Path("out"), GRID.m, None), GRID, 100.0).system
    assert full_checks_per_step(monkeypatch, sys, StepMode.EXPANSIVE) == 0
    slack = catalog.make_example_3_9(GRID, 12.0, u0=f.vector(tri(-0.3, 0.1, 0.9))).system
    assert full_checks_per_step(monkeypatch, slack, StepMode.EXPANSIVE) == 0


def test_contractive_steps_make_one_full_check(monkeypatch):
    for u0 in (None, f.vector(tri(-0.3, 0.1, 0.9))):
        sys = catalog.make_example_3_9(GRID, 12.0, u0=u0).system
        assert full_checks_per_step(monkeypatch, sys, StepMode.CONTRACTIVE) == 1  # h_difference


# ---------------------------------------------------------------------------
# cost: a time scale and its march hold no Python object per point
# ---------------------------------------------------------------------------

def traced_peak_of_a_march(n):
    """The traced peak, in bytes, of building ``integer(n)`` with a
    one-component, two-level system on it and exhausting ``hybrid.states``."""
    grid = f.AlphaGrid.uniform(2)
    tracemalloc.start()
    try:
        sys = HybridFuzzySystem(f.integer(n), (0.0,), lambda t, u, lam: u, (zero_map,), rho=1.0,
                                u0=f.vector(f.crisp(0.0, grid)))
        for _ in hybrid.states(sys):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_time_scale_and_its_march_hold_no_python_object_per_point():
    # the points, graininess and segments arrays are 24 bytes a point; a
    # float, an int or a dict entry per point would add 24 to 100 more
    small, large = traced_peak_of_a_march(1000), traced_peak_of_a_march(5000)
    assert (large - small) / 4000 < 48


def test_streams_yield_times_as_floats_and_segments_as_ints():
    """A numpy scalar would change the text of a StepFailureError and the
    bytes of the CSV and JSON files."""
    sys = build_example_system(GRID, 2, 3)
    stacked = sys.replace(u0=oracles.stack([sys.u0, sys.u0]))
    streams = hybrid.states(sys), hybrid.stacked_states(stacked, StepMode.EXPANSIVE, None, {})
    for stream in streams:
        assert {(type(t), type(k)) for t, k, *_ in stream} == {(float, int)}
    steps = []

    def advance(t, mu, x, held):
        steps.append((type(t), type(mu)))
        return x, held

    segments = {type(k) for k, _ in sys.schedule.march(0.0, None, lambda k, x: x, advance)}
    assert segments == {int} and set(steps) == {(float, float)} and len(steps) == len(sys.ts) - 1


# ---------------------------------------------------------------------------
# linear DSL systems against their exact endpoint march
# ---------------------------------------------------------------------------

ORACLE_GRID = f.AlphaGrid.uniform(4)
ORACLE_SCALES = ("integer(6)", "qscale(1,1.5,6)",
                 "intervals([[0,0.3],[0.5,0.9],[1.2,1.5]], 0.1)")
# each term k * x: its DSL text and its coefficient as a function of mu
TERMS = {
    "const": ("smul({k}, {x})", lambda k, mu: k),
    "eta": ("smul({k} * eta(t), {x})", lambda k, mu: k / (1 + mu)),
    "mu": ("smul({k} * mu(t), {x})", lambda k, mu: k * mu),
    "circminus": ("circminus(smul({k}, {x}))", lambda k, mu: -k / (1 + mu)),
}
# |solver - oracle| at a point, in units of the sample's largest endpoint so far
ORACLE_BOUND = 1e-12

eighths = st.integers(-12, 12).map(lambda i: i / 8)


triangles = st.lists(eighths, min_size=3, max_size=3).map(sorted)


def exact_cuts(a, b, c):
    """The (lower, upper) Fractions of tri(a, b, c) on ORACLE_GRID."""
    levels = [Fraction(alpha) for alpha in ORACLE_GRID.levels.tolist()]
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    return [a + alpha * (b - a) for alpha in levels], [c - alpha * (c - b) for alpha in levels]


def linear_dsl_system(scale, points, switches, terms, consts, lam0, hold_state):
    """The DSL system with the right-hand side of ``terms`` and ``consts``,
    switching at the points of index ``switches``, from two crisp zeros."""
    lam0_text = "tri({}, {}, {})".format(*lam0)
    sections = {
        "timescale": {"scale": scale},
        "system": {"rhs": " fadd ".join([TERMS[form][0].format(k=k, x=x) for form, k, x in terms]
                                        + [f"crisp({k})" for k in consts]),
                   "lambda_0": lam0_text, "lambda_k": "u_k" if hold_state else lam0_text,
                   # each switch time written as its 10-digit decimal names its stored point
                   "switch_times": " ".join(f"{points[i]:.10g}" for i in switches),
                   "u0": "crisp(0) | crisp(0)"},
    }
    return build_dsl_bundle(RunConfig(sections, Path("out"), ORACLE_GRID.m, None), ORACLE_GRID,
                            1e9).system


def term_coefs(terms, var):
    """The coefficients of ``var`` in ``terms``, as functions of mu."""
    return [(lambda mu, form=form, k=Fraction(k): TERMS[form][1](k, mu))
            for form, k, x in terms if x == var]


@given(data=st.data(), scale=st.sampled_from(ORACLE_SCALES),
       terms=st.lists(st.tuples(st.sampled_from(sorted(TERMS)), eighths,
                                st.sampled_from(["u", "lam"])), min_size=1, max_size=3),
       consts=st.lists(eighths, max_size=2), lam0=triangles, hold_state=st.booleans(),
       samples=st.lists(st.lists(triangles, min_size=2, max_size=2), min_size=1, max_size=3),
       mode=st.sampled_from(list(StepMode)))
@settings(max_examples=60, deadline=None)
def test_linear_dsl_systems_match_their_exact_endpoint_march(data, scale, terms, consts, lam0,
                                                            hold_state, samples, mode):
    ts = parse_timescale_spec(scale)
    points = ts.points.tolist()
    inner = data.draw(st.lists(st.integers(1, len(points) - 2), unique=True, max_size=3))
    switches = [0] + sorted(inner)
    last = data.draw(st.integers(1, len(points) - 1))
    sys = linear_dsl_system(scale, points, switches, terms, consts, lam0, hold_state)
    assert sys.switch_times == tuple(points[i] for i in switches)
    states = [[f.make_triangle(*tri_, ORACLE_GRID) for tri_ in comps] for comps in samples]
    stack = oracles.stack([f.vector(*comps) for comps in states])
    segments, exact, gaps = oracles.linear_march(
        points, switches, term_coefs(terms, "u"), term_coefs(terms, "lam"),
        sum(map(Fraction, consts)), exact_cuts(*lam0), hold_state,
        [[(u.lower.tolist(), u.upper.tolist()) for u in comps] for comps in states],
        mode is StepMode.CONTRACTIVE, last)
    # a step fails when its exact state is not a fuzzy number; none comes
    # within rounding of the solver's tolerance
    sizes = [[max(1.0, max(abs(float(v)) for comps in values[s] for cut in comps for v in cut))
              for values in exact] for s in range(len(samples))]
    sizes = [np.maximum.accumulate(size).tolist() for size in sizes]
    fails = {}
    for s, steps in enumerate(gaps):
        for i, gap in enumerate(steps):
            assume(gap == 0 or gap > 1e-9 * sizes[s][i + 1])
            if gap:
                fails[s] = i
                break

    def assert_matches(i, got, rows):
        """The stack ``got`` at point i holds the exact states of ``rows``."""
        assert got.lower.shape[0] == len(rows)
        for j, s in enumerate(rows):
            want = np.array([[[float(v) for v in cut] for cut in comps] for comps in exact[i][s]])
            err = max(np.abs(got.lower[j] - want[:, 0]).max(),
                      np.abs(got.upper[j] - want[:, 1]).max())
            assert err <= ORACLE_BOUND * sizes[s][i], (i, s, err / sizes[s][i])

    failures, seen = {}, []
    for t, k, rows, got in hybrid.stacked_states(sys.replace(u0=stack), mode, points[last],
                                                 failures):
        seen.append(k)
        live = [s for s in range(len(samples)) if fails.get(s, last) >= len(seen) - 1]
        assert rows.tolist() == live
        assert_matches(len(seen) - 1, got, rows.tolist())
    assert seen == segments
    assert {row: exc.t for row, exc in failures.items()} == {
        s: points[i] for s, i in fails.items()}

    # one sample alone, and the stack stepped by states until a sample fails
    try:
        single = solve(sys.replace(u0=stack.take(0)), mode, horizon=points[last])
    except StepFailureError as exc:
        assert exc.t == points[fails[0]]
    else:
        assert 0 not in fails
        for i, got in enumerate(single.values):
            assert_matches(i, oracles.stack([got]), [0])
    seen = []
    try:
        for t, k, got in hybrid.states(sys.replace(u0=stack), mode, horizon=points[last]):
            seen.append((t, k))
            assert_matches(len(seen) - 1, got, range(len(samples)))
    except StepFailureError as exc:
        assert exc.t == points[min(fails.values())] and len(seen) == min(fails.values()) + 1
    else:
        assert not fails
    assert seen == list(zip(points, segments))[:len(seen)]


# ---------------------------------------------------------------------------
# the comparison bound on linear systems, against their exact march
# ---------------------------------------------------------------------------

def exact_norm(comps):
    """V = d, the distance to the crisp zero, of an exact state."""
    return max(abs(v) for lo, up in comps for cut in (lo, up) for v in cut)


@given(data=st.data(), scale=st.sampled_from(ORACLE_SCALES),
       terms=st.lists(st.tuples(st.sampled_from(sorted(TERMS)), eighths,
                                st.sampled_from(["u", "lam"])), min_size=1, max_size=3),
       consts=st.lists(eighths, max_size=1), lam0=triangles, hold_state=st.booleans(),
       u0=st.lists(triangles, min_size=2, max_size=2), mode=st.sampled_from(list(StepMode)),
       alpha=st.integers(-4, 12).map(lambda i: i / 8),
       beta=st.integers(0, 12).map(lambda i: i / 8),
       slack=st.integers(0, 4).map(lambda i: i / 8))
@settings(max_examples=40, deadline=None)
def test_linear_systems_keep_the_comparison_bound_where_condition_ii_holds(
        data, scale, terms, consts, lam0, hold_state, u0, mode, alpha, beta, slack):
    """With V = d, g = alpha r + beta v (1 + mu alpha >= 0, beta >= 0), psi = v
    and r0 >= V(t0, u0), the exact march keeps V <= r wherever condition (ii)
    holds at every step, and so does the package's own march within BOUND_TOL."""
    ts = parse_timescale_spec(scale)
    points = ts.points.tolist()
    mus = [Fraction(b) - Fraction(a) for a, b in zip(points, points[1:])]
    assume(all(1 + mu * Fraction(alpha) >= 0 for mu in mus))
    inner = data.draw(st.lists(st.integers(1, len(points) - 2), unique=True, max_size=3))
    switches = [0] + sorted(inner)
    state = f.vector(*(f.make_triangle(*tri_, ORACLE_GRID) for tri_ in u0))
    sys = linear_dsl_system(scale, points, switches, terms, consts, lam0,
                            hold_state).replace(u0=state)
    last = data.draw(st.integers(1, len(points) - 1))
    segments, exact, gaps = oracles.linear_march(
        points, switches, term_coefs(terms, "u"), term_coefs(terms, "lam"),
        sum(map(Fraction, consts)), exact_cuts(*lam0), hold_state,
        [[(u.lower.tolist(), u.upper.tolist()) for u in state]], mode is StepMode.CONTRACTIVE, last)
    # march no further than the last state that is a fuzzy number
    last = next((i for i, gap in enumerate(gaps[0]) if gap), last)
    V = [exact_norm(values[0]) for values in exact[:last + 1]]
    r0 = float(V[0]) + slack  # rounds to no less than V(t0, u0), itself a float
    r = [Fraction(r0)]
    a, b = Fraction(alpha), Fraction(beta)
    for i in range(last):
        start = switches[segments[i]]
        r.append(r[i] + mus[i] * (a * r[i] + b * r[start]))
    condition_ii = all(V[i + 1] - V[i] <= mus[i] * (a * V[i] + b * V[switches[segments[i]]])
                       for i in range(last))
    event(f"condition (ii) {'holds' if condition_ii else 'fails'}")
    if not condition_ii:
        return
    assert all(v <= x for v, x in zip(V, r))
    comp = ScalarHybridSystem(ts, sys.switch_times, lambda t, r, v: alpha * r + beta * v,
                              (lambda v: v,) * len(switches), r0)
    march = list(hybrid.states(sys, mode, horizon=points[last]))
    got = solve_comparison(comp, horizon=points[last]).values.tolist()
    assert [float(x) for x in r] == pytest.approx(got, rel=1e-12)
    bound = stability.comparison_bound([t for t, _, _ in march],
                                       [f.norm(u) for _, _, u in march], got)
    assert bound["holds"] and bound["checked_points"] == last + 1, bound
