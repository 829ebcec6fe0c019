import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzzyts as f
from fuzzyts.errors import (
    DimensionMismatchError,
    GHDifferenceError,
    GridMismatchError,
    InvalidShapeError,
)
from fuzzyts import fuzzy, io as ftio
from fuzzyts.fuzzy import ATOL

import oracles

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def tri(a, b, c):
    return f.make_triangle(a, b, c, GRID)


def random_fuzzy(rng, span=5.0):
    lower, upper = oracles.random_cuts(rng, GRID.m, span)
    return f.FuzzyNumber(GRID, lower, upper)


@st.composite
def fuzzy_numbers(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    return random_fuzzy(np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def test_alpha_grid_validation():
    with pytest.raises(InvalidShapeError):
        f.AlphaGrid(np.array([0.0, 0.5]))  # must end at 1
    with pytest.raises(InvalidShapeError):
        f.AlphaGrid(np.array([0.1, 1.0]))  # must start at 0
    with pytest.raises(InvalidShapeError):
        f.AlphaGrid(np.array([0.0, 0.5, 0.5, 1.0]))
    assert f.AlphaGrid.uniform(5).m == 5


def test_trapezoid_crisp_zero():
    z = f.make_trapezoid(0, 0, 0, 0, GRID)
    assert all(lo == 0 == hi for _, lo, hi in z.to_records())


def test_trapezoid_triangular_shape():
    u = tri(-1, 0, 1)
    assert u.cut(0) == (-1.0, 1.0)
    assert u.cut(GRID.m - 1) == (0.0, 0.0)


def test_trapezoid_interpolation_against_oracle():
    u = f.make_trapezoid(1, 2, 3, 5, GRID)
    for i, alpha in enumerate(GRID.levels):
        lo, hi = oracles.trapezoid_cut(1, 2, 3, 5, alpha)
        assert u.cut(i) == pytest.approx((lo, hi), abs=TOL)
    assert u.cut(5) == pytest.approx((1.5, 4.0), abs=TOL)  # alpha = 0.5


def test_trapezoid_ordering_error():
    with pytest.raises(InvalidShapeError):
        f.make_trapezoid(1, 0, 2, 3, GRID)


def _strict(lower, upper):
    """Whether cuts are ordered and nested exactly, with no slack."""
    return bool((lower <= upper).all() and (lower[..., 1:] >= lower[..., :-1]).all()
                and (upper[..., 1:] <= upper[..., :-1]).all())


def _assert_tightened(u, lower, upper):
    """``u`` is stored ordered and nested exactly, within ATOL of the
    endpoints it was built from."""
    assert _strict(u.lower, u.upper)
    assert np.abs(u.lower - lower).max() <= ATOL and np.abs(u.upper - upper).max() <= ATOL


def _dip(depth):
    """Lower endpoints at 0 that step down by ``depth`` at level 6."""
    lower = np.zeros(11)
    lower[6:] = -depth
    return lower


@pytest.mark.parametrize("lower, upper, message", [
    (np.zeros(10), np.ones(11), "endpoint arrays must match the grid size"),
    (np.full(11, np.nan), np.full(11, 1.0), "endpoints must be finite"),
    (np.linspace(0, 1, 11), np.linspace(-1, 0, 11), "lower endpoint exceeds upper endpoint"),
    (np.linspace(1, 0, 11), np.full(11, 2.0), "alpha cuts are not nested"),
    # non-finite and non-nested at once: finiteness is reported first
    (np.linspace(1, 0, 11), np.full(11, np.inf), "endpoints must be finite"),
    (_dip(2 * ATOL), np.ones(11), "alpha cuts are not nested"),
    # every step dips 0.9 ATOL, and tightening moves the last lower endpoint 9 ATOL
    (-0.9 * ATOL * np.arange(11), np.ones(11), "alpha cuts are not nested"),
    # tolerance-level slack is accepted
    (_dip(ATOL), np.ones(11), None),
    (np.full(11, ATOL), np.zeros(11), None),
    # a lower dip of 1.5 ATOL that the core clamp absorbs: each endpoint moves 0.75 ATOL
    (np.r_[np.ones(10), 1 - 1.5 * ATOL], np.r_[np.full(10, 2.0), 1 - 0.75 * ATOL], None),
], ids=["shape", "finite", "nonempty", "nested", "finite-before-nested",
        "drop-2atol", "accumulated-9atol", "drop-atol", "lower-eq-upper-plus-atol",
        "clamp-absorbs-dip"])
def test_fuzzy_number_invariant_enforcement(lower, upper, message):
    """Each input on its own, and as the middle sample of a stack of three,
    where ``rows`` names that sample alone."""
    if message is None:
        _assert_tightened(f.FuzzyNumber(GRID, lower, upper), lower, upper)
    else:
        with pytest.raises(InvalidShapeError, match=message):
            f.FuzzyNumber(GRID, lower, upper)
    if lower.shape != upper.shape:
        return
    good = tri(-1, 0, 1)
    stack = [np.stack([g, x, g])[:, None] for g, x in ((good.lower, lower), (good.upper, upper))]
    if message is None:
        _assert_tightened(f.FuzzyVector.from_arrays(GRID, *stack), *stack)
    else:
        with pytest.raises(InvalidShapeError, match=message) as failed:
            f.FuzzyVector.from_arrays(GRID, *stack)
        assert {j: str(e) for j, e in failed.value.rows.items()} == {1: message}


# ---------------------------------------------------------------------------
# add / scale
# ---------------------------------------------------------------------------

def test_add_identity():
    u = tri(-1, 0, 1)
    assert f.dist(f.add(u, f.zero(GRID)), u) <= TOL


def test_add_against_minkowski_oracle():
    u, v = tri(-1, 0, 1), tri(-1, 0, 1)
    s = f.add(u, v)
    expected = tri(-2, 0, 2)
    assert f.dist(s, expected) <= TOL
    for i in range(GRID.m):
        assert s.cut(i) == pytest.approx(
            oracles.interval_sum(u.cut(i), v.cut(i)), abs=TOL)


def test_add_crisp_reduction():
    s = f.add(f.crisp(2, GRID), f.crisp(3, GRID))
    assert s.is_crisp and s.crisp_value() == pytest.approx(5.0, abs=TOL)


def test_add_grid_mismatch():
    with pytest.raises(GridMismatchError):
        f.add(tri(-1, 0, 1), f.make_triangle(-1, 0, 1, f.AlphaGrid.uniform(5)))


@pytest.mark.parametrize("k", [1.0, -1.0, 0.5, 0.0, -2.75])
def test_scale_against_oracle(k):
    rng = np.random.default_rng(3)
    u = random_fuzzy(rng)
    s = f.scale(k, u)
    for i in range(GRID.m):
        assert s.cut(i) == pytest.approx(oracles.interval_scale(k, u.cut(i)), abs=TOL)


def test_scale_examples():
    u = tri(-1, 0, 1)
    assert f.dist(f.scale(1, u), u) <= TOL
    assert f.dist(f.scale(-1, u), u) <= TOL  # symmetric support
    assert f.dist(f.scale(0.5, u), tri(-0.5, 0, 0.5)) <= TOL


# ---------------------------------------------------------------------------
# gH difference
# ---------------------------------------------------------------------------

def test_gh_self_difference():
    u = tri(-1, 0, 1)
    assert f.dist(f.gh_difference(u, u), f.zero(GRID)) <= TOL


def test_gh_crisp_intervals_roundtrip():
    u = f.FuzzyNumber(GRID, np.full(11, 1.0), np.full(11, 3.0))
    v = f.FuzzyNumber(GRID, np.full(11, 0.0), np.full(11, 1.0))
    w = f.gh_difference(u, v)
    assert w.cut(0) == pytest.approx((1.0, 2.0), abs=TOL)
    assert f.dist(f.add(v, w), u) <= TOL
    assert oracles.gh_roundtrip_ok(u.to_records(), v.to_records(), w.to_records())


def test_gh_nonexistence_growing_cuts():
    u = f.FuzzyNumber(GRID, np.full(11, 0.0), np.full(11, 1.0))
    v = tri(0, 0.5, 1)
    # level-wise candidate is [-alpha/2, alpha/2], growing with alpha
    with pytest.raises(GHDifferenceError):
        f.gh_difference(u, v)
    # candidates whose lower cuts dip 0.9 ATOL at one step, or at every
    # step in the middle sample, 9 ATOL in all: only that sample fails
    u = oracles.stack([f.vector(f.FuzzyNumber(GRID, np.zeros(11), np.full(11, 2.0)))] * 3)
    steps = np.arange(11) > 5, np.arange(11), np.arange(11) > 5
    v = oracles.stack([f.vector(f.FuzzyNumber(GRID, 0.9 * ATOL * x, np.ones(11)))
                             for x in steps])
    with pytest.raises(GHDifferenceError) as failed:
        f.gh_difference(u, v)
    assert list(failed.value.rows) == [1]


def test_gh_grid_mismatch():
    with pytest.raises(GridMismatchError):
        f.gh_difference(tri(0, 1, 2), f.make_triangle(0, 1, 2, f.AlphaGrid.uniform(5)))


@given(fuzzy_numbers(), fuzzy_numbers())
@settings(max_examples=150, deadline=None)
def test_gh_roundtrip_property(u, v):
    try:
        w = f.gh_difference(u, v)
    except GHDifferenceError:
        return
    assert oracles.gh_roundtrip_ok(u.to_records(), v.to_records(), w.to_records())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_hausdorff_interval_cases():
    cases = [(((0, 1), (0, 1)), 0.0), (((0, 1), (0, 2)), 1.0), (((0, 1), (3, 4)), 3.0)]
    for (a, b), expected in cases:
        assert f.hausdorff_interval(a, b) == pytest.approx(expected, abs=TOL)
        assert f.hausdorff_interval(a, b) == pytest.approx(
            oracles.hausdorff_sampled(a, b), abs=1e-9)


def test_dist_examples():
    u = tri(0, 1, 2)
    assert f.dist(u, u) == 0.0
    assert f.dist(u, tri(3, 4, 5)) == pytest.approx(3.0, abs=TOL)


@given(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers())
@settings(max_examples=150, deadline=None)
def test_metric_axioms(u, v, w):
    assert f.dist(u, u) <= TOL
    assert abs(f.dist(u, v) - f.dist(v, u)) <= TOL
    assert f.dist(u, w) <= f.dist(u, v) + f.dist(v, w) + TOL


@given(fuzzy_numbers(), fuzzy_numbers(), fuzzy_numbers(),
       st.floats(-5, 5, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_metric_structure_properties(u, v, w, k):
    # translation invariance, |k|-homogeneity, subadditivity under addition
    assert abs(f.dist(f.add(u, w), f.add(v, w)) - f.dist(u, v)) <= TOL
    assert abs(f.dist(f.scale(k, u), f.scale(k, v)) - abs(k) * f.dist(u, v)) <= 1e-11
    e = w
    assert f.dist(f.add(u, v), f.add(w, e)) <= f.dist(u, w) + f.dist(v, e) + TOL


# ---------------------------------------------------------------------------
# every state is checked: kernel results in place, outside data on entry
# ---------------------------------------------------------------------------

def _construct(lower, upper):
    """The number or vector these endpoints make, through the constructor."""
    with np.errstate(over="ignore"):
        if lower.ndim == 1:
            return f.FuzzyNumber(GRID, lower, upper)
        return f.FuzzyVector.from_arrays(GRID, lower, upper)


@st.composite
def endpoints(draw, shapes=((), (3,), (2, 3))):
    """Endpoint arrays of a number, an (n, m) vector or an (S, n, m) stack
    at magnitudes from the subnormals to near overflow.  Their cuts are
    ordered and nested exactly, or slack is added to a run of levels of one
    row's lower or upper endpoints: a step of up to 1.5 ATOL a level, in or
    out, adding up along alpha, so that the total may pass ATOL."""
    shape = draw(st.sampled_from(shapes))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.floats(0.0, 8e306) | st.floats(0.0, 10.0))  # random_cuts stays within 20
    cuts = [oracles.random_cuts(rng, GRID.m) for _ in range(int(np.prod(shape)))]
    lower = np.reshape([lo for lo, _ in cuts], (*shape, GRID.m)) * size
    upper = np.reshape([hi for _, hi in cuts], (*shape, GRID.m)) * size
    if draw(st.booleans()):
        row = draw(st.integers(0, len(cuts) - 1))
        start = draw(st.integers(0, GRID.m - 1))
        stop = draw(st.integers(start + 1, GRID.m))
        step = draw(st.floats(-1.5 * ATOL, 1.5 * ATOL))
        side = lower if draw(st.booleans()) else upper
        side.reshape(-1, GRID.m)[row, start:stop] += step * np.arange(1, stop - start + 1)
    return lower, upper


def _built(lower, upper):
    """The state the constructor makes of these endpoints, held to the one
    rule: they are rejected exactly when tightening them
    (``oracles.tightened_cuts``) moves an endpoint by more than ATOL, and
    else stored ordered and nested exactly, within ATOL of them (bit for
    bit when they already are).  A rejected input gives the state of its
    tightened cuts."""
    tight = oracles.tightened_cuts(lower, upper)
    if max(np.abs(tight[0] - lower).max(), np.abs(tight[1] - upper).max()) > ATOL:
        with pytest.raises(InvalidShapeError, match="^(lower endpoint exceeds upper endpoint"
                                                    "|alpha cuts are not nested)$"):
            _construct(lower, upper)
        lower, upper = tight
    u = _construct(lower, upper)
    if _strict(lower, upper):
        assert _bits(u) == (lower.tobytes(), upper.tobytes())
    else:
        _assert_tightened(u, lower, upper)
    return u


def _as_constructed(kernel, lower, upper):
    """``kernel()`` gives the state with these endpoints when the
    constructor accepts them and raises what the constructor raises
    otherwise, which can only be the finiteness rejection."""
    try:
        want = _construct(lower, upper)
    except InvalidShapeError as rejection:
        assert str(rejection) == "endpoints must be finite"
        with pytest.raises(InvalidShapeError, match=f"^{rejection}$"):
            kernel()
        return
    got = kernel()
    assert type(got) is type(want)
    assert _bits(got) == _bits(want)
    assert not got.lower.flags.writeable and not got.upper.flags.writeable


def _scaled(k, u):
    """The endpoints of ``k * u``, computed directly."""
    with np.errstate(over="ignore", invalid="ignore"):
        return (k * u.lower, k * u.upper) if k >= 0 else (k * u.upper, k * u.lower)


@given(st.data(), st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nestedness_closure(data, k):
    """A number, vector or stack whose cuts hold exactly is stored bit for
    bit; one that tightening moves by at most ATOL is stored exact, within
    ATOL of it; any other is rejected (see ``_built``).  So ``add`` and
    ``scale`` results are what the constructor makes of their endpoints,
    exact unless they overflow, with only their finiteness tested; and
    Hukuhara differences are exact, also where ``(u + v) - v`` carries
    rounding slack."""
    u = _built(*data.draw(endpoints()))
    v = _built(*data.draw(endpoints(((), u.lower.shape[:-1]))))
    with np.errstate(over="ignore"):
        added = u.lower + v.lower, u.upper + v.upper
    _as_constructed(lambda: f.add(u, v), *added)
    _as_constructed(lambda: f.add(v, u), *added)
    _as_constructed(lambda: f.scale(k, u), *_scaled(k, u))
    for kernel in (f.h_difference, f.gh_difference, lambda a, b: f.h_difference(a + b, b),
                   lambda a, b: f.gh_difference(a + b, b)):
        try:
            w = kernel(u, v)
        except (InvalidShapeError, GHDifferenceError):
            continue
        assert _strict(w.lower, w.upper)


# built from a core whose lower endpoint rounds 5.6e-17 above its upper one
_SLACK = f.make_triangle(-0.3, 0.1, 0.9, GRID)


@pytest.mark.parametrize("k", [0.0, -0.0, np.inf, -np.inf, np.nan],
                         ids=["zero", "negative-zero", "inf", "-inf", "nan"])
@pytest.mark.parametrize("u", [f.vector(tri(-1, 0, 2), f.zero(GRID)), f.vector(_SLACK)],
                         ids=["exact", "slack"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_scale_by_zero_or_non_finite_is_what_the_constructor_makes(u, k):
    _as_constructed(lambda: f.scale(k, u), *_scaled(k, u))


@pytest.mark.parametrize("kernel", [
    lambda: f.scale(1e300, tri(-1e10, 0, 1)),
    lambda: f.scale(-1e300, f.vector(tri(-1, 0, 1e10))),
    lambda: f.add(f.crisp(1e308, GRID), f.vector(f.crisp(1e308, GRID))),
    lambda: f.h_difference(f.vector(f.crisp(1e308, GRID)), f.vector(f.crisp(-1e308, GRID))),
    lambda: f.gh_difference(f.vector(f.crisp(1e308, GRID)), f.vector(f.crisp(-1e308, GRID))),
], ids=["scale", "negative-scale", "add", "h_difference", "gh_difference"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflow_raises_the_finite_rejection_and_prints_nothing(kernel):
    with pytest.raises(InvalidShapeError, match="^endpoints must be finite$"):
        kernel()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_valid_number_whose_nesting_steps_overflow_builds_silently():
    lower = [-1e308, 1e308, 1e308]  # its first step, 2e308, passes the largest float
    w = f.FuzzyNumber(f.AlphaGrid.uniform(3), lower, [1e308] * 3)
    assert w.lower.tolist() == lower


_WIDE = f.vector(f.make_trapezoid(-20, -10, 10, 20, GRID))
_HUGE = f.vector(f.crisp(1e308, GRID))

# one component's endpoints that each check rejects, with its message
_BAD = {
    "shape": (np.zeros(10), np.ones(11), "endpoint arrays must match the grid size"),
    "finite": (np.full(11, np.inf), np.full(11, np.inf), "endpoints must be finite"),
    "nonempty": (np.linspace(0, 1, 11), np.linspace(-1, 0, 11),
                 "lower endpoint exceeds upper endpoint"),
    "nested": (np.linspace(1, 0, 11), np.full(11, 2.0), "alpha cuts are not nested"),
}


def _reach(route, lower, upper, tmp_path):
    """A state with these endpoints, reached through ``route``."""
    if route == "from_arrays":
        return f.FuzzyVector.from_arrays(GRID, lower[None], upper[None])
    if route == "load_trajectory_csv":
        rows = [",".join(ftio.TRAJECTORY_HEADER)] + [
            f"0,0,0,{a!r},{lo!r},{hi!r}"
            for a, lo, hi in zip(GRID.levels.tolist(), lower.tolist(), upper.tolist())]
        (tmp_path / "t.csv").write_text("\r\n".join(rows) + "\r\n")
        return ftio.load_trajectory_csv(tmp_path / "t.csv")
    kernel = getattr(f, route)
    if np.isinf(lower).any():  # valid operands overflow
        return kernel(_HUGE, f.scale(-1.0, _HUGE))
    # valid operands whose endpoint differences are these, up to rounding
    u = f.FuzzyVector.from_arrays(GRID, lower + _WIDE.lower, upper + _WIDE.upper)
    return kernel(u, _WIDE)


@pytest.mark.parametrize("route, case", [
    *(("from_arrays", case) for case in _BAD),
    *(("h_difference", case) for case in ("finite", "nonempty", "nested")),
    ("gh_difference", "finite"),
    *(("load_trajectory_csv", case) for case in ("finite", "nonempty", "nested")),
])
def test_boundary_keeps_every_check(route, case, tmp_path):
    """Each rejection still fires where it can arise.  A shape mismatch
    cannot come out of a kernel (operands are checked compatible) or the
    loader (the grid is read from the same rows); a gH difference is never
    empty, and its nesting failure is GHDifferenceError (see
    test_gh_nonexistence_growing_cuts)."""
    lower, upper, message = _BAD[case]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(InvalidShapeError, match=f"^{message}$"):
        _reach(route, lower, upper, tmp_path)


@pytest.mark.parametrize("lower, upper, message", [
    (_dip(ATOL / 2), np.ones(11), "alpha cuts are not nested"),
    (np.full(11, ATOL / 2), np.zeros(11), "lower endpoint exceeds upper endpoint"),
], ids=["nesting-slack", "ordering-slack"])
def test_kernels_reject_slack_once_enlarged_past_atol(lower, upper, message):
    """Endpoints may come in with slack within ATOL: a trapezoid's core may
    (``a + (b - a)`` can round above ``d - (d - c)``).  The constructor
    stores them exact, within ATOL of the input, so no multiple or sum can
    enlarge the slack; built from such enlarged endpoints, a state is still
    rejected at once."""
    w = f.FuzzyNumber(GRID, lower, upper)
    _assert_tightened(w, lower, upper)
    for result in (f.scale(-2.0, w), f.scale(-1e6, w), f.add(f.add(w, w), w)):
        assert _strict(result.lower, result.upper)
    with pytest.raises(InvalidShapeError, match=f"^{message}$"):
        f.FuzzyNumber(GRID, -1e6 * upper, -1e6 * lower)
    with pytest.raises(InvalidShapeError, match=f"^{message}$"):
        f.FuzzyNumber(GRID, 3 * lower, 3 * upper)


# ---------------------------------------------------------------------------
# vectors and the norm-like functional
# ---------------------------------------------------------------------------

def test_vec_dist_examples():
    z = f.zero(GRID)
    u = f.vector(tri(0, 1, 2), z)
    v = f.vector(tri(3, 4, 5), z)
    assert f.dist(u, u) == 0.0
    assert f.dist(u, v) == pytest.approx(3.0, abs=TOL)
    # n = 1 reduces to dist
    assert f.dist(f.vector(tri(0, 1, 2)), f.vector(tri(3, 4, 5))) == pytest.approx(
        f.dist(tri(0, 1, 2), tri(3, 4, 5)), abs=TOL)


def test_vec_dist_dimension_mismatch():
    with pytest.raises(f.DimensionMismatchError):
        f.dist(f.vector(tri(0, 1, 2)), f.vector(tri(0, 1, 2), tri(0, 1, 2)))


def test_norm_examples():
    assert f.norm(f.zero_vector(GRID)) == 0.0
    assert f.norm(f.vector(tri(-1, 0, 1))) == pytest.approx(1.0, abs=TOL)


@given(fuzzy_numbers(), fuzzy_numbers(), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=150, deadline=None)
def test_norm_properties(a, b, k):
    u = f.vector(a)
    v = f.vector(b)
    assert (f.norm(u) <= TOL) == (f.dist(a, f.zero(GRID)) <= TOL)
    assert abs(f.norm(f.scale(k, u)) - abs(k) * f.norm(u)) <= 1e-11
    assert f.norm(f.add(u, v)) <= f.norm(u) + f.norm(v) + TOL
    assert f.dist(u, f.zero_vector(GRID)) == f.norm(u)
    # negative-only and -0.0 endpoints in a two-component vector
    w = f.vector(tri(-3, -2, -1), f.FuzzyNumber(GRID, np.linspace(-1, -0.0, 11),
                                                np.full(11, -0.0)))
    for x in (w, f.vector(a, f.scale(-1.0, b))):
        assert f.dist(x, f.zero_vector(GRID, 2)) == f.norm(x)


def test_norm_builds_no_fuzzy_number(monkeypatch):
    u = f.vector(tri(-1, 0, 1), tri(-3, -2, -1))
    built = []
    post_init = f.FuzzyNumber.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(f.FuzzyNumber, "__post_init__", counting)
    f.FuzzyNumber(GRID, u.lower[0], u.upper[0])
    assert len(built) == 1  # the hook sees a direct build
    built.clear()
    assert f.norm(u) == 3.0
    assert not built


def test_norm_zero_iff_zero():
    assert f.norm(f.vector(f.crisp(0.0, GRID))) == 0.0
    assert f.norm(f.vector(f.crisp(1e-9, GRID))) > 0.0


def test_crisp_reduction_matches_real_arithmetic():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x, y, k = rng.uniform(-10, 10, 3)
        assert f.add(f.crisp(x, GRID), f.crisp(y, GRID)).crisp_value() == pytest.approx(
            x + y, abs=TOL)
        assert f.scale(k, f.crisp(x, GRID)).crisp_value() == pytest.approx(k * x, abs=TOL)
        assert f.dist(f.crisp(x, GRID), f.crisp(y, GRID)) == pytest.approx(
            abs(x - y), abs=TOL)


def test_serialization_records():
    u = tri(-1, 0, 1)
    records = u.to_records()
    assert len(records) == GRID.m
    assert records[0] == (0.0, -1.0, 1.0)
    assert records[-1] == (1.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# one representation: kernels on (n, m) vectors equal the per-component ones
# ---------------------------------------------------------------------------

@st.composite
def fuzzy_vectors(draw, n=None):
    n = draw(st.integers(1, 4)) if n is None else n
    return f.vector(*(draw(fuzzy_numbers()) for _ in range(n)))


def _same(got, want):
    """Bit-equal endpoints, component by component."""
    assert got.n == len(want)
    for row, comp in zip(got, want):
        assert np.array_equal(row.lower, comp.lower) and np.array_equal(row.upper, comp.upper)


def _each(kernel, *operands):
    """``kernel`` per component; a number operand meets every component."""
    n = max(x.n for x in operands if isinstance(x, f.FuzzyVector))
    rows = [[x[i] if isinstance(x, f.FuzzyVector) else x for x in operands] for i in range(n)]
    return [kernel(*r) for r in rows]


@given(st.data(), st.floats(-5, 5, allow_nan=False), st.booleans())
@settings(max_examples=150, deadline=None)
def test_vector_kernels_equal_per_component_kernels(data, k, number_operand):
    u = data.draw(fuzzy_vectors())
    v = data.draw(fuzzy_numbers() if number_operand else fuzzy_vectors(n=u.n))
    for a, b in ((u, v), (v, u)):
        _same(f.add(a, b), _each(f.add, a, b))
        assert f.dist(a, b) == max(_each(f.dist, a, b))
        try:
            want = _each(f.gh_difference, a, b)
        except GHDifferenceError:
            with pytest.raises(GHDifferenceError):
                f.gh_difference(a, b)
        else:
            _same(f.gh_difference(a, b), want)
        try:
            want = _each(f.h_difference, a, b)
        except InvalidShapeError:
            with pytest.raises(InvalidShapeError):
                f.h_difference(a, b)
        else:
            _same(f.h_difference(a, b), want)
    _same(f.scale(k, u), [f.scale(k, c) for c in u])
    assert f.norm(u) == max(f.norm(c) for c in u)


@pytest.mark.parametrize("kernel", [f.add, f.gh_difference, f.h_difference, f.dist])
def test_vectors_of_different_dimension_do_not_broadcast(kernel):
    one = f.vector(tri(0, 1, 2))
    three = f.vector(tri(0, 1, 2), tri(0, 1, 2), tri(0, 1, 2))
    for a, b in ((one, three), (three, one)):
        with pytest.raises(DimensionMismatchError):
            kernel(a, b)


def test_vector_with_one_bad_component_is_rejected():
    good = tri(-1, 0, 1)
    lower = np.stack([good.lower, good.lower, good.upper])  # last row: lower > upper
    upper = np.stack([good.upper, good.upper, good.lower])
    with pytest.raises(InvalidShapeError, match="lower endpoint exceeds upper endpoint"):
        f.FuzzyVector.from_arrays(GRID, lower, upper)
    # a kernel result with one bad component: the last h difference is empty
    with pytest.raises(InvalidShapeError, match="lower endpoint exceeds upper endpoint"):
        f.h_difference(f.vector(good, good, good), f.vector(good, good, tri(-2, 0, 2)))
    with pytest.raises(InvalidShapeError, match="endpoint arrays must match the grid size"):
        f.FuzzyVector.from_arrays(GRID, good.lower, good.upper)


def test_vector_components_round_trip():
    comps = (tri(-1, 0, 1), f.crisp(2.0, GRID), f.make_trapezoid(0, 1, 2, 3, GRID))
    u = f.FuzzyVector(comps)
    assert u.lower.shape == u.upper.shape == (3, GRID.m)
    assert not u.lower.flags.writeable
    _same(u, comps)
    _same(u, [u[0], u[1], u[-1]])
    assert u.to_records() == [c.to_records() for c in comps]


# ---------------------------------------------------------------------------
# stacks of states: a leading samples axis
# ---------------------------------------------------------------------------

def _bits(u):
    return u.lower.tobytes(), u.upper.tobytes()


def _rows(u):
    """The samples of a stack as single states."""
    return [u.take(j) for j in range(u.samples)]


@given(st.data(), st.integers(1, 5), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_stack_kernels_equal_per_sample_kernels(data, samples, k):
    states = [data.draw(fuzzy_vectors(n=2)) for _ in range(samples)]
    others = [data.draw(fuzzy_vectors(n=2)) for _ in range(samples)]
    u, v = oracles.stack(states), oracles.stack(others)
    assert u.samples == samples and u.n == 2
    pairs = list(zip(states, others))
    for kernel in (f.add, f.gh_difference, f.h_difference):
        for a, b, rows in ((u, v, pairs), (u, others[0], [(s, others[0]) for s in states])):
            try:
                want = [kernel(x, y) for x, y in rows]
            except (GHDifferenceError, InvalidShapeError) as exc:
                with pytest.raises(type(exc)):
                    kernel(a, b)
            else:
                assert [_bits(r) for r in _rows(kernel(a, b))] == [_bits(w) for w in want]
    got = _rows(f.scale(k, u))
    assert [_bits(r) for r in got] == [_bits(f.scale(k, s)) for s in states]


# The tests of the kernels, in the order they run (gh_difference runs only
# the first two, the others all but the first).
_TEST_ORDER = ["gH difference does not exist: cuts are not nested", "endpoints must be finite",
               "lower endpoint exceeds upper endpoint", "alpha cuts are not nested"]


@st.composite
def operands_near_overflow(draw, samples):
    """Two lists of single states, in some rows of which a component of each
    is moved near the largest float, where sums or differences overflow."""
    states = [draw(fuzzy_vectors(n=2)) for _ in range(samples)]
    others = [draw(fuzzy_vectors(n=2)) for _ in range(samples)]
    for j in draw(st.sets(st.integers(0, samples - 1), max_size=3)):
        i, x, y = draw(st.integers(0, 1)), 1e308, draw(st.sampled_from([1e308, -1e308]))
        states[j] = f.vector(*(f.add(c, f.crisp(x, GRID)) if k == i else c
                               for k, c in enumerate(states[j])))
        others[j] = f.vector(*(f.add(c, f.crisp(y, GRID)) if k == i else c
                               for k, c in enumerate(others[j])))
    return states, others


@given(st.data(), st.integers(1, 6), st.floats(-5, 5, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_a_failed_stack_kernel_carries_the_error_of_each_failing_row(data, samples, k):
    states, others = data.draw(operands_near_overflow(samples))
    u = oracles.stack(states)
    kernels = (f.add, f.h_difference, f.gh_difference, lambda a, b: f.scale(k, a))
    for kernel in kernels:
        for v, pairs in ((oracles.stack(others), list(zip(states, others))),
                         (others[0], [(s, others[0]) for s in states])):
            want = {}
            for j, (a, b) in enumerate(pairs):
                try:
                    kernel(a, b)
                except (GHDifferenceError, InvalidShapeError) as exc:
                    want[j] = (type(exc), str(exc))
            try:
                kernel(u, v)
            except (GHDifferenceError, InvalidShapeError) as exc:
                assert {j: (type(e), str(e)) for j, e in exc.rows.items()} == want
                # the stack's own error: the first of the kernel's tests that any row fails
                first = min(want.values(), key=lambda e: _TEST_ORDER.index(e[1]))
                assert (type(exc), str(exc)) == first
            else:
                assert want == {}


def test_norm_and_dist_of_a_stack_give_one_value_per_sample():
    states = [f.vector(tri(-1, 0, 1), tri(0, 1, 3)), f.vector(tri(-4, 0, 1), f.crisp(0.5, GRID)),
              f.vector(f.crisp(0.0, GRID), f.crisp(-0.25, GRID))]
    u = oracles.stack(states)
    ref = f.vector(tri(0, 1, 2), tri(-1, 0, 1))
    assert f.norm(u).shape == (3,)
    assert f.norm(u).tolist() == [f.norm(s) for s in states] == [3.0, 4.0, 0.25]
    assert f.dist(u, ref).shape == f.dist(ref, u).shape == (3,)
    assert f.dist(u, ref).tolist() == [f.dist(s, ref) for s in states]
    assert f.dist(u, u).tolist() == [0.0, 0.0, 0.0]


def test_stack_round_trip_and_shape_rules():
    states = [f.vector(tri(-1, 0, 1), tri(0, 1, 2)), f.vector(tri(-2, 0, 2), tri(0, 0, 0))]
    u = oracles.stack(states)
    assert u.lower.shape == (2, 2, GRID.m) and not u.lower.flags.writeable
    assert [_bits(r) for r in _rows(u)] == [_bits(s) for s in states]
    assert [_bits(r) for r in _rows(u.take([1]))] == [_bits(states[1])]
    assert u.take([]).samples == 0 and states[0].samples is None
    with pytest.raises(InvalidShapeError, match="no components; take one sample first"):
        u[0]
    with pytest.raises(DimensionMismatchError):
        f.add(u, u.take([0]))  # two stacks need one sample count
    with pytest.raises(DimensionMismatchError):
        f.add(u, f.vector(tri(0, 1, 2)))  # and a vector the stack's dimension


def test_stack_with_one_bad_sample_is_rejected():
    good = f.vector(tri(-1, 0, 1))
    lower = np.stack([good.lower, good.upper])  # second sample: lower > upper
    upper = np.stack([good.upper, good.lower])
    with pytest.raises(InvalidShapeError, match="lower endpoint exceeds upper endpoint"):
        f.FuzzyVector.from_arrays(GRID, lower, upper)
    with pytest.raises(InvalidShapeError, match="endpoint arrays must match the grid size"):
        f.FuzzyVector.from_arrays(GRID, lower[None], upper[None])
