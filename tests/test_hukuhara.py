import numpy as np
import pytest

import fuzzyts as f
from fuzzyts.errors import NoSuccessorError, VerificationInconclusive
from fuzzyts import hybrid
from fuzzyts.hukuhara import (FuzzyTrajectory, delta_h_derivative, delta_h_derivatives,
                              verify_derivative_definition)

import oracles

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def tri(a, b, c):
    return f.make_triangle(a, b, c, GRID)


def vec(u):
    return f.vector(u)


def make_traj(ts, fn):
    return FuzzyTrajectory(ts, [fn(float(t)) for t in ts.points])


def test_constant_trajectory_has_zero_derivative():
    ts = f.integer(6)
    traj = make_traj(ts, lambda t: vec(tri(-1, 0, 1)))
    for t in ts.kappa_points():
        d = delta_h_derivative(traj, float(t))
        assert d is not None
        assert f.norm(d) <= TOL


def test_linear_fuzzy_trajectory_on_integers():
    ts = f.integer(8)
    w = tri(-1, 0, 1)
    traj = make_traj(ts, lambda t: vec(f.scale(t + 1.0, w)))
    for t in ts.kappa_points():
        d = delta_h_derivative(traj, float(t))
        assert d is not None
        assert f.dist(d, vec(w)) <= TOL


def test_crisp_square_matches_scalar_delta_derivative():
    ts = f.integer(8)
    traj = make_traj(ts, lambda t: vec(f.crisp(t * t, GRID)))
    d = delta_h_derivative(traj, 3.0)
    assert d is not None
    assert d[0].crisp_value() == pytest.approx(7.0, abs=TOL)
    for t in ts.kappa_points():
        d = delta_h_derivative(traj, float(t))
        assert d[0].crisp_value() == pytest.approx(
            ts.delta_derivative(lambda s: s * s, float(t)), abs=TOL)


def test_scattered_quotient_matches_endpoint_oracle():
    # random expansive-style trajectory: differences exist by construction
    ts = f.qscale(1.0, 2.0, 6)
    rng = np.random.default_rng(5)
    values = [vec(tri(-1, 0, 1))]
    for _ in range(len(ts) - 1):
        lower, upper = oracles.random_cuts(rng, GRID.m, span=1.0)
        values.append(f.add(values[-1], vec(f.FuzzyNumber(GRID, lower, upper))))
    traj = FuzzyTrajectory(ts, values)
    for i, t in enumerate(ts.kappa_points()):
        t = float(t)
        mu = ts.mu(t)
        d = delta_h_derivative(traj, t)
        assert d is not None
        u1, u0 = values[i + 1][0], values[i][0]
        dlo = (u1.lower - u0.lower) / mu
        dhi = (u1.upper - u0.upper) / mu
        assert np.max(np.abs(d[0].lower - np.minimum(dlo, dhi))) <= TOL
        assert np.max(np.abs(d[0].upper - np.maximum(dlo, dhi))) <= TOL


def test_nonexistence_returns_none():
    ts = f.integer(3)
    flat = f.FuzzyNumber(GRID, np.full(11, 0.0), np.full(11, 1.0))
    growing = tri(0, 0.5, 1)
    traj = FuzzyTrajectory(ts, [vec(growing), vec(flat), vec(flat), vec(flat)])
    assert delta_h_derivative(traj, 0.0) is None


def test_dense_two_sided_disagreement_returns_none():
    h = 1e-7
    pts = np.arange(-4, 5) * h
    ts = f.explicit(pts)
    traj = make_traj(ts, lambda t: vec(f.crisp(abs(t), GRID)))
    assert ts.is_right_dense(0.0)
    assert delta_h_derivative(traj, 0.0) is None  # kink: +1 forward, -1 backward


def test_dense_smooth_agreement():
    h = 1e-7
    pts = np.arange(0, 9) * h
    ts = f.explicit(pts)
    traj = make_traj(ts, lambda t: vec(f.crisp(3.0 * t, GRID)))
    d = delta_h_derivative(traj, float(pts[2]))
    assert d is not None
    assert d[0].crisp_value() == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("ts, switch, undefined", [
    (f.integer(8), 4.0, []),
    (f.intervals([[0, 1], [1.5, 2.5]], 0.1), 1.5, []),
    # right-dense: the quotients on either side of the switch disagree there
    (f.intervals([[0, 1e-6], [5e-6, 1e-5]], 1e-7), 5e-6, [5e-6]),
], ids=["integer", "gap", "right-dense"])
def test_streamed_derivatives_equal_the_trajectory_derivatives(ts, switch, undefined):
    sys = hybrid.HybridFuzzySystem(
        ts, (0.0, switch), lambda t, u, lam: f.add(f.scale(-0.5, u), lam),
        (lambda t, u: f.zero_vector(u.grid, u.n), lambda t, u: vec(f.crisp(1.0, GRID))),
        rho=10.0, u0=vec(tri(-1, 0, 1)))
    traj = hybrid.solve(sys)
    expected = [(t, delta_h_derivative(traj, t)) for t in traj.times[:-1].tolist()]
    streamed = list(delta_h_derivatives(ts, hybrid.states(sys)))
    assert [t for t, _ in streamed] == [t for t, _ in expected]
    bits = lambda d: None if d is None else (d.lower.tobytes(), d.upper.tobytes())
    assert [bits(d) for _, d in streamed] == [bits(d) for _, d in expected]
    assert [t for t, d in streamed if d is None] == undefined


def test_terminal_point_raises():
    ts = f.integer(3)
    traj = make_traj(ts, lambda t: vec(f.crisp(t, GRID)))
    with pytest.raises(NoSuccessorError):
        delta_h_derivative(traj, 3.0)


# ---------------------------------------------------------------------------
# definition checker
# ---------------------------------------------------------------------------

def linear_traj(ts):
    w = tri(-1, 0, 1)
    return make_traj(ts, lambda t: vec(f.scale(t + 1.0, w)))


def test_definition_accepts_true_derivative():
    ts = f.integer(10)
    traj = linear_traj(ts)
    candidate = delta_h_derivative(traj, 4.0)
    assert verify_derivative_definition(traj, 4.0, candidate, eps=1e-9)


def test_definition_accepts_zero_for_constant():
    ts = f.integer(10)
    traj = make_traj(ts, lambda t: vec(tri(0, 1, 2)))
    zero = f.zero_vector(GRID)
    for eps in (1e-12, 1e-3, 1.0):
        assert verify_derivative_definition(traj, 4.0, zero, eps=eps)


def test_definition_rejects_perturbed_candidate():
    ts = f.integer(10)
    traj = linear_traj(ts)
    candidate = delta_h_derivative(traj, 4.0)
    shifted = f.add(candidate, f.vector(f.crisp(1.0, GRID)))
    assert not verify_derivative_definition(traj, 4.0, shifted, eps=0.5)
    assert verify_derivative_definition(traj, 4.0, shifted, eps=1.5)


def test_definition_quadratic_needs_spacing_scale_eps():
    ts = f.integer(10)
    traj = make_traj(ts, lambda t: vec(f.crisp(t * t, GRID)))
    candidate = delta_h_derivative(traj, 4.0)
    # curvature 2: the needed eps equals the largest sampled offset h
    assert verify_derivative_definition(traj, 4.0, candidate, eps=2.0 + 1e-9, window=2)
    assert not verify_derivative_definition(traj, 4.0, candidate, eps=0.5, window=2)
    # widening the neighborhood demands a proportionally larger eps
    assert verify_derivative_definition(traj, 4.0, candidate, eps=6.0 + 1e-9, window=8)
    assert not verify_derivative_definition(traj, 4.0, candidate, eps=2.0, window=8)


def test_definition_inconclusive_when_difference_missing():
    ts = f.integer(3)
    flat = f.FuzzyNumber(GRID, np.full(11, 0.0), np.full(11, 1.0))
    traj = FuzzyTrajectory(ts, [vec(tri(0, 0.5, 1)), vec(flat), vec(flat), vec(flat)])
    with pytest.raises(VerificationInconclusive):
        verify_derivative_definition(traj, 1.0, f.zero_vector(GRID), eps=1.0)


def test_uniqueness_via_shrinking_eps():
    ts = f.integer(12)
    traj = linear_traj(ts)
    t = 5.0
    true = delta_h_derivative(traj, t)
    rng = np.random.default_rng(9)
    for _ in range(25):
        delta = float(rng.uniform(-0.8, 0.8))
        other = f.add(true, f.vector(f.crisp(delta, GRID)))
        for eps in (1.0, 0.5, 0.25, 0.1, 0.05):
            a = verify_derivative_definition(traj, t, true, eps=eps)
            b = verify_derivative_definition(traj, t, other, eps=eps)
            if a and b:
                assert f.dist(true, other) <= 2 * eps + TOL


def test_crisp_reduction_of_derivative():
    ts = f.qscale(1.0, 3.0, 5)
    g = lambda t: 0.5 * t * t - t
    traj = make_traj(ts, lambda t: vec(f.crisp(g(t), GRID)))
    for t in ts.kappa_points():
        t = float(t)
        d = delta_h_derivative(traj, t)
        assert d[0].crisp_value() == pytest.approx(ts.delta_derivative(g, t), abs=TOL)
