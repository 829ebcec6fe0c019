
import numpy as np
import pytest

import fuzzyts as f
from fuzzyts.comparison import (
    ScalarHybridSystem,
    check_monotonicity_hypothesis,
    solve_comparison,
)
from fuzzyts.errors import BlowUpError, InvalidShapeError
from fuzzyts.hybrid import HybridFuzzySystem, solve

import oracles

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12

identity = lambda v: v


def one_segment(ts, g, r0):
    return ScalarHybridSystem(ts, (float(ts.points[0]),), g, (identity,), r0)


def test_zero_dynamics():
    ts = f.integer(8)
    traj = solve_comparison(one_segment(ts, lambda t, r, v: 0.0, 2.5))
    assert np.all(np.abs(traj.values - 2.5) <= TOL)


def test_companion_recursion_values():
    ts = f.integer(10)
    g = lambda t, w, w_k: (w + w_k) / (1.0 + ts.mu(t))
    traj = solve_comparison(one_segment(ts, g, 1.0))
    assert traj.values[1] == pytest.approx(2.0, abs=TOL)
    assert traj.values[2] == pytest.approx(3.5, abs=TOL)
    assert traj.values[3] == pytest.approx(5.75, abs=TOL)
    for i, r in enumerate(oracles.companion_sequence(1.0, 10)):
        assert traj.values[i] == pytest.approx(r, abs=TOL)


def test_linear_contraction_closed_form():
    ts = f.integer(12)
    traj = solve_comparison(one_segment(ts, lambda t, r, v: -r / 2.0, 1.0))
    for t in range(13):
        assert traj.values[t] == pytest.approx(2.0 ** -t, abs=TOL)


def test_multi_segment_psi_freezing():
    ts = f.integer(9)
    switch_times = (0.0, 3.0, 6.0)
    g = lambda t, r, v: 0.25 * r + v
    psi = lambda v: 2.0 * v
    sys = ScalarHybridSystem(ts, switch_times, g, (psi,) * 3, 1.0)
    traj = solve_comparison(sys)
    expected = oracles.comparison_euler(ts.points, list(switch_times), g,
                                        [psi] * 3, 1.0)
    for i, r in enumerate(expected):
        assert traj.values[i] == pytest.approx(r, abs=TOL)
    assert list(traj.segments) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2]


def test_blow_up_error_carries_location():
    ts = f.integer(8)
    sys = one_segment(ts, lambda t, r, v: r * r, 1e200)
    with pytest.raises(BlowUpError) as err:
        solve_comparison(sys)
    assert err.value.t in [float(t) for t in ts.points]


def test_negative_r0_rejected():
    ts = f.integer(4)
    with pytest.raises(InvalidShapeError):
        one_segment(ts, lambda t, r, v: 0.0, -1.0)


def test_horizon_truncation():
    ts = f.integer(10)
    traj = solve_comparison(one_segment(ts, lambda t, r, v: 1.0, 0.0), horizon=4.0)
    assert len(traj) == 5
    assert traj.value_at(4.0) == pytest.approx(4.0, abs=TOL)


# ---------------------------------------------------------------------------
# monotonicity hypothesis checks
# ---------------------------------------------------------------------------

def test_monotonicity_passes_for_averaging_g():
    ts = f.integer(6)
    sys = one_segment(ts, lambda t, r, v: (r + v) / 2.0, 1.0)
    report = check_monotonicity_hypothesis(sys, samples=300, seed=1)
    assert report.passed


def test_monotonicity_flags_decreasing_map():
    ts = f.integer(6)
    sys = one_segment(ts, lambda t, r, v: -2.0 * r, 1.0)
    report = check_monotonicity_hypothesis(sys, samples=300, seed=1)
    assert report.g_mu_r_violations  # g*mu + r = -r is decreasing
    assert not report.passed


def test_monotonicity_flags_decreasing_psi():
    ts = f.integer(6)
    sys = ScalarHybridSystem(ts, (0.0,), lambda t, r, v: 0.0, (lambda v: -v,), 1.0)
    report = check_monotonicity_hypothesis(sys, samples=200, seed=3)
    assert report.psi_violations


def test_monotonicity_report_is_deterministic():
    ts = f.integer(6)
    sys = one_segment(ts, lambda t, r, v: -2.0 * r, 1.0)
    r1 = check_monotonicity_hypothesis(sys, samples=100, seed=9)
    r2 = check_monotonicity_hypothesis(sys, samples=100, seed=9)
    assert r1.to_dict() == r2.to_dict()


# ---------------------------------------------------------------------------
# cross-checks against the fuzzy solver
# ---------------------------------------------------------------------------

def test_crisp_equivalence_with_fuzzy_solver():
    rng = np.random.default_rng(7)
    for _ in range(20):
        ts = f.integer(int(rng.integers(4, 10)))
        a, c = rng.uniform(-0.8, 0.8, 2)
        r0 = float(rng.uniform(0.0, 3.0))
        g = lambda t, r, v, a=a, c=c: a * r + c
        scalar = solve_comparison(one_segment(ts, g, r0))

        def rhs(t, u, lam, a=a, c=c):
            return f.vector(f.crisp(a * u[0].crisp_value() + c, GRID))

        fuzzy_sys = HybridFuzzySystem(
            ts, (0.0,), rhs,
            (lambda t_k, u_k: f.zero_vector(GRID),), rho=1e9,
            u0=f.vector(f.crisp(r0, GRID)))
        fuzzy_traj = solve(fuzzy_sys)
        for i in range(len(ts)):
            assert fuzzy_traj.values[i][0].crisp_value() == pytest.approx(
                float(scalar.values[i]), abs=TOL)


def test_monotone_in_initial_value_when_hypotheses_hold():
    ts = f.integer(10)
    g = lambda t, r, v: (r + v) / 2.0
    sys = one_segment(ts, g, 0.0)
    assert check_monotonicity_hypothesis(sys, samples=200, seed=5).passed
    rng = np.random.default_rng(5)
    for _ in range(25):
        lo, hi = sorted(rng.uniform(0.0, 5.0, 2))
        small = solve_comparison(sys.replace(r0=float(lo)))
        large = solve_comparison(sys.replace(r0=float(hi)))
        assert np.all(small.values <= large.values + TOL)


def test_isolated_scale_not_flagged_approximate():
    ts = f.integer(5)
    assert not solve_comparison(one_segment(ts, lambda t, r, v: 0.0, 1.0)).approximate_maximality


def test_dense_scale_flagged_approximate():
    ts = f.intervals([[0.0, 1e-5]], 1e-7)
    traj = solve_comparison(one_segment(ts, lambda t, r, v: 0.0, 1.0))
    assert traj.approximate_maximality
