import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzzyts as f
from fuzzyts.errors import (
    InvalidShapeError,
    NonRegressiveError,
    NoSuccessorError,
    UnknownPointError,
)

TOL = 1e-12


def test_integer_scale_jump_and_graininess():
    ts = f.integer(10)
    assert ts.sigma(5.0) == 6.0
    assert ts.mu(5.0) == pytest.approx(1.0, abs=TOL)


def test_qscale_jump():
    ts = f.qscale(1.0, 2.0, 6)  # 1, 2, 4, 8, 16, 32, 64
    assert ts.sigma(4.0) == 8.0
    assert ts.mu(4.0) == pytest.approx(4.0, abs=TOL)


def test_interval_union_scale():
    ts = f.intervals([[0.0, 1.0], [2.0, 3.0]], 0.1)
    assert ts.sigma(1.0) == pytest.approx(2.0, abs=TOL)
    assert ts.mu(0.5) == pytest.approx(0.1, abs=TOL)
    assert not ts.is_right_dense(0.5)  # spacing 0.1 > default threshold


def test_dense_classification_at_fine_resolution():
    ts = f.intervals([[0.0, 1e-5]], 1e-7)
    assert ts.is_right_dense(0.0)
    assert ts.mu(0.0) == pytest.approx(1e-7, rel=1e-6)


def test_point_lookup_errors():
    ts = f.integer(5)
    with pytest.raises(UnknownPointError):
        ts.sigma(2.5)
    with pytest.raises(NoSuccessorError):
        ts.sigma(5.0)
    with pytest.raises(NoSuccessorError):
        ts.mu(5.0)


def test_explicit_scale_validation():
    with pytest.raises(InvalidShapeError):
        f.explicit([0.0, 0.0, 1.0])
    with pytest.raises(InvalidShapeError):
        f.explicit([3.0])


def test_sigma_monotone_across_scales():
    for ts in (f.integer(12), f.qscale(1, 1.5, 10), f.intervals([[0, 1], [2, 3]], 0.25)):
        sigmas = [ts.sigma(float(t)) for t in ts.kappa_points()]
        assert all(a <= b for a, b in zip(sigmas, sigmas[1:]))


# ---------------------------------------------------------------------------
# delta derivative and the upper Dini estimate
# ---------------------------------------------------------------------------

def test_delta_derivative_square_on_integers():
    ts = f.integer(10)
    # f(t) = t^2 has delta derivative 2t + 1 on the integers
    assert ts.delta_derivative(lambda t: t * t, 3.0) == pytest.approx(7.0, abs=TOL)


def test_delta_derivative_trivials():
    for ts in (f.integer(6), f.qscale(1, 2, 5)):
        for t in ts.kappa_points():
            assert ts.delta_derivative(lambda s: 4.25, float(t)) == pytest.approx(0.0, abs=TOL)
            assert ts.delta_derivative(lambda s: s, float(t)) == pytest.approx(1.0, abs=TOL)


def test_delta_derivative_linearity():
    ts = f.qscale(1, 1.7, 8)
    g = lambda t: t * t - 3 * t
    h = lambda t: np.sin(t)
    for t in ts.kappa_points():
        t = float(t)
        combined = ts.delta_derivative(lambda s: g(s) + h(s), t)
        assert combined == pytest.approx(
            ts.delta_derivative(g, t) + ts.delta_derivative(h, t), abs=TOL)


def test_upper_dini_scattered_equals_delta():
    ts = f.integer(10)
    g = lambda t: t ** 3 - 2 * t
    for t in ts.kappa_points():
        assert ts.upper_dini(g, float(t)) == ts.delta_derivative(g, float(t))


def test_upper_dini_constant_zero():
    ts = f.intervals([[0.0, 1e-5]], 1e-7)
    assert ts.upper_dini(lambda t: 1.0, 0.0) == pytest.approx(0.0, abs=TOL)


def test_upper_dini_absolute_value_at_origin():
    h = 1e-7
    pts = np.arange(-8, 9) * h  # symmetric dense sampling around 0
    ts = f.explicit(pts, dense_threshold=1e-6)
    assert ts.is_right_dense(0.0)
    assert ts.upper_dini(abs, 0.0) == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# regressive algebra
# ---------------------------------------------------------------------------

SCALES = [f.integer(8), f.qscale(1.0, 2.0, 6), f.uniform(0.0, 0.5, 8)]


def random_regressive(ts, rng, name="p"):
    # values in (-0.45, 0.45) keep 1 + mu*p away from zero on mu <= 4
    table = {float(t): float(rng.uniform(-0.2, 0.45)) for t in ts.points}
    return f.RegressiveFn(ts, lambda t: table[float(t)], name=name)


def test_non_regressive_rejected():
    ts = f.integer(5)
    with pytest.raises(NonRegressiveError):
        f.constant(ts, -1.0)  # 1 + 1 * (-1) = 0


def test_circle_minus_self_is_zero():
    rng = np.random.default_rng(0)
    for ts in SCALES:
        p = random_regressive(ts, rng)
        z = f.circle_minus(p, p)
        for t in ts.kappa_points():
            assert z(float(t)) == pytest.approx(0.0, abs=TOL)


def test_ominus_one_on_unit_graininess():
    ts = f.integer(6)
    m1 = f.ominus(f.constant(ts, 1.0))
    for t in ts.kappa_points():
        assert m1(float(t)) == pytest.approx(-0.5, abs=TOL)  # -1 / (1 + mu), mu = 1


def test_ominus_general_formula():
    for ts in SCALES:
        one = f.ominus(f.constant(ts, 1.0))
        for t in ts.kappa_points():
            t = float(t)
            assert one(t) == pytest.approx(-1.0 / (1.0 + ts.mu(t)), abs=TOL)


@pytest.mark.parametrize("ts", SCALES, ids=["integer", "qscale", "uniform"])
def test_regressive_identities_random_pairs(ts):
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = random_regressive(ts, rng, "p")
        q = random_regressive(ts, rng, "q")
        lhs = f.circle_plus(p, f.ominus(q))
        rhs = f.circle_minus(p, q)
        double = f.ominus(f.ominus(p))
        swapped = f.ominus(f.circle_minus(q, p))
        for t in ts.kappa_points():
            t = float(t)
            assert lhs(t) == pytest.approx(rhs(t), abs=TOL)
            assert double(t) == pytest.approx(p(t), abs=TOL)
            assert swapped(t) == pytest.approx(rhs(t), abs=TOL)


def test_circle_plus_formula():
    ts = f.integer(6)
    p = f.constant(ts, 0.25)
    q = f.constant(ts, 0.5)
    s = f.circle_plus(p, q)
    for t in ts.kappa_points():
        t = float(t)
        assert s(t) == pytest.approx(0.25 + 0.5 + ts.mu(t) * 0.125, abs=TOL)


@pytest.mark.parametrize("ts", [f.integer(12), f.uniform(0.0, 1e-7, 12)],
                         ids=["scattered", "dense"])
@given(data=st.data(), samples=st.integers(1, 5))
@settings(max_examples=40, deadline=None)
def test_upper_dini_of_array_valued_f_equals_its_per_column_results(ts, data, samples):
    # few distinct values, so quotients tie and zero quotients carry both signs
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0]), st.floats(-10, 10))
    table = np.array(data.draw(st.lists(st.lists(values, min_size=samples, max_size=samples),
                                        min_size=len(ts), max_size=len(ts))))
    horizon = float(ts.points[data.draw(st.integers(1, len(ts) - 1))])
    row = {t: r for t, r in zip(ts.points.tolist(), table)}
    for t in ts.points[: ts.index_of(horizon)].tolist():
        got = ts.upper_dini(row.__getitem__, t, horizon=horizon)
        want = [ts.upper_dini(lambda s: float(row[s][j]), t, horizon=horizon)
                for j in range(samples)]
        assert np.asarray(got).tobytes() == np.array(want, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# lookups of arrays of points
# ---------------------------------------------------------------------------

ARRAY_SCALES = [f.integer(6), f.qscale(1.0, 2.0, 6), f.intervals([[0.0, 1.0], [1.5, 2.5]], 0.1),
                f.explicit([0.0, 1e-10, 1.0, 2.0])]


@pytest.mark.parametrize("ts", ARRAY_SCALES, ids=["integer", "qscale", "intervals", "close"])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_array_lookups_equal_their_scalar_lookups(ts, data):
    # stored points, some with representation noise, every one with a successor
    picks = data.draw(st.lists(st.integers(0, len(ts) - 2), min_size=1, max_size=8))
    noise = data.draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 5e-10]),
                               min_size=len(picks), max_size=len(picks)))
    t = ts.points[picks] + np.array(noise)
    for lookup in (ts.index_of, ts.mu, ts.sigma):
        got = lookup(t)
        assert got.shape == t.shape
        assert got.tolist() == [lookup(float(x)) for x in t]


def _error_of(call):
    try:
        call()
    except (UnknownPointError, NoSuccessorError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("points, first", [
    ([0.0, 2.5, 6.0], 2.5),  # off the scale
    ([1.0, 6.0, 2.5], 6.0),  # terminal
    ([6.0 + 1e-12, 2.5], 6.0 + 1e-12),  # terminal up to lookup noise
    ([-1.0, 3.0], -1.0),  # before the first point
])
def test_array_lookup_raises_what_its_first_failing_point_raises(points, first):
    ts = f.integer(6)
    for lookup in (ts.index_of, ts.mu, ts.sigma):
        failing = [x for x in points if _error_of(lambda: lookup(x))]
        if lookup != ts.index_of:  # index_of finds a terminal point
            assert failing[0] == first
        if failing:
            assert _error_of(lambda: lookup(np.array(points))) == _error_of(
                lambda: lookup(failing[0]))
        else:
            assert lookup(np.array(points)).tolist() == [lookup(x) for x in points]
