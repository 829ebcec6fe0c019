import numpy as np
import pytest

import fuzzyts as f
from fuzzyts import dsl
from fuzzyts.dsl import Env, EvalError, ParseError
from fuzzyts.errors import GHDifferenceError

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def ev(src, **scalars):
    return dsl.eval_scalar(dsl.parse_scalar(src), Env(scalars=scalars))


# ---------------------------------------------------------------------------
# scalar parsing and evaluation
# ---------------------------------------------------------------------------

def test_precedence():
    assert ev("1+2*3") == 7.0
    assert ev("2*3+1") == 7.0
    assert ev("6/2/3") == 1.0  # left associative
    assert ev("1-2-3") == -4.0
    assert ev("-2*3") == -6.0
    assert ev("--2") == 2.0


def test_parentheses():
    assert ev("(r+v)/2", r=1.0, v=1.0) == 1.0
    assert ev("(1+2)*3") == 9.0


def test_eta_on_integer_scale():
    ts = f.integer(10)
    e = dsl.parse_scalar("eta(t)")
    assert dsl.eval_scalar(e, Env(scalars={"t": 3.0}, ts=ts)) == pytest.approx(0.5, abs=TOL)


def test_mu_sigma_calls():
    ts = f.qscale(1.0, 2.0, 5)
    env = Env(scalars={"t": 4.0}, ts=ts)
    assert dsl.eval_scalar(dsl.parse_scalar("mu(t)"), env) == pytest.approx(4.0, abs=TOL)
    assert dsl.eval_scalar(dsl.parse_scalar("sigma(t)"), env) == pytest.approx(8.0, abs=TOL)


def test_builtin_functions():
    assert ev("min(2, 3)") == 2.0
    assert ev("max(2, 3)") == 3.0
    assert ev("abs(-4)") == 4.0
    assert ev("pow(2, 10)") == 1024.0


def test_numbers_with_exponents():
    assert ev("1.5e2") == 150.0
    assert ev("2.5E-1") == 0.25
    assert ev(".5 + 1.") == 1.5


def test_variable_aliases_for_comparison_slots():
    # w / w_k are alternative spellings of r / v
    assert ev("(w + w_k)/2", r=3.0, v=1.0) == 2.0
    assert ev("(r + v)/2", r=3.0, v=1.0) == 2.0


def test_syntax_error_positions():
    with pytest.raises(ParseError) as err:
        dsl.parse_scalar("(r+")
    assert err.value.col == 4 and err.value.expected
    with pytest.raises(ParseError) as err:
        dsl.parse_scalar("1 +\n* 2")
    assert err.value.line == 2


def test_parse_rejections():
    for bad in ["", "1 2", "foo(1)", "min(1)", "pow(1,2,3)", "(1", "1+", "*3"]:
        with pytest.raises(ParseError):
            dsl.parse_scalar(bad)


def test_slot_variable_restriction():
    dsl.parse_scalar("t + r - v", variables={"t", "r", "v"})
    dsl.parse_scalar("(w + w_k)/2", variables={"t", "r", "v"})  # aliases accepted
    with pytest.raises(ParseError):
        dsl.parse_scalar("t + d", variables={"t", "r", "v"})
    with pytest.raises(ParseError):
        dsl.parse_scalar("u_k", variables={"x"})


def test_unbound_variable_and_division_by_zero():
    with pytest.raises(EvalError):
        ev("q + 1")
    with pytest.raises(EvalError) as err:
        ev("1/(r-r)", r=2.0)
    assert err.value.span != (0, 0)


def test_sigma_at_terminal_point_is_eval_error():
    ts = f.integer(4)
    with pytest.raises(EvalError):
        dsl.eval_scalar(dsl.parse_scalar("sigma(t)"), Env(scalars={"t": 4.0}, ts=ts))


def test_evaluation_is_pure():
    e = dsl.parse_scalar("(r + v) / (1 + mu(t))")
    env = Env(scalars={"t": 2.0, "r": 1.5, "v": 0.5}, ts=f.integer(8))
    assert dsl.eval_scalar(e, env) == dsl.eval_scalar(e, env)


# ---------------------------------------------------------------------------
# fuzzy parsing and evaluation
# ---------------------------------------------------------------------------

def fuzzy_env(t=3.0, **fuzzies):
    return Env(scalars={"t": t}, fuzzies=fuzzies, ts=f.integer(10), grid=GRID)


def test_fuzzy_literals():
    u = dsl.eval_fuzzy(dsl.parse_fuzzy("tri(-1,0,1)"), fuzzy_env())
    assert u.cut(0) == (-1.0, 1.0) and u.cut(GRID.m - 1) == (0.0, 0.0)
    w = dsl.eval_fuzzy(dsl.parse_fuzzy("trap(0,1,2,4)"), fuzzy_env())
    assert w.cut(0) == (0.0, 4.0) and w.cut(GRID.m - 1) == (1.0, 2.0)
    c = dsl.eval_fuzzy(dsl.parse_fuzzy("crisp(2.5)"), fuzzy_env())
    assert c.is_crisp and c.crisp_value() == 2.5


def test_fuzzy_operators_match_module_calls():
    u = f.make_triangle(-1, 0, 1, GRID)
    lam = f.make_triangle(0, 1, 2, GRID)
    env = fuzzy_env(u=u, lam=lam)
    got = dsl.eval_fuzzy(dsl.parse_fuzzy("u fadd smul(2, lam)"), env)
    assert f.dist(got, f.add(u, f.scale(2.0, lam))) <= TOL
    got = dsl.eval_fuzzy(dsl.parse_fuzzy("ghsub(u, u)"), env)
    assert f.dist(got, f.zero(GRID)) <= TOL


def test_circminus_is_scaled_negation():
    u = f.make_triangle(-1, 0, 1, GRID)
    env = fuzzy_env(t=3.0, u=u)
    got = dsl.eval_fuzzy(dsl.parse_fuzzy("circminus(u)"), env)
    assert f.dist(got, f.scale(-0.5, u)) <= TOL  # mu = 1 on the integers


def test_example_rhs_expression():
    src = "circminus(u) fadd smul(eta(t), lam)"
    expr = dsl.parse_fuzzy(src, variables={"u", "lam"}, scalar_variables={"t"})
    u = f.crisp(4.0, GRID)
    lam = f.crisp(2.0, GRID)
    got = dsl.eval_fuzzy(expr, fuzzy_env(u=u, lam=lam))
    assert got.crisp_value() == pytest.approx(-1.0, abs=TOL)  # -4/2 + 2/2


def test_gh_nonexistence_propagates():
    flat = f.FuzzyNumber(GRID, np.full(11, 0.0), np.full(11, 1.0))
    env = fuzzy_env(u=flat, lam=f.make_triangle(0, 0.5, 1, GRID))
    with pytest.raises(GHDifferenceError):
        dsl.eval_fuzzy(dsl.parse_fuzzy("ghsub(u, lam)"), env)


def test_fuzzy_parse_rejections():
    for bad in ["tri(1,2)", "smul(u, 2)", "fadd u", "u fadd", "unknown(u)", "u ghsub u"]:
        with pytest.raises(ParseError):
            dsl.parse_fuzzy(bad)


# ---------------------------------------------------------------------------
# printing round trips
# ---------------------------------------------------------------------------

SCALAR_CORPUS = [
    "1+2*3",
    "(r+v)/2",
    "-(t+1)*2",
    "1-2-3",
    "6/2/3",
    "min(t, max(r, v)) + abs(-2)",
    "pow(2, t) - eta(t)",
    "(w + w_k)/(1 + mu(t))",
    "1.5e2 + .25",
    "-x",
]

FUZZY_CORPUS = [
    "tri(-1,0,1)",
    "trap(0, 1, 2, 4)",
    "crisp(2.5)",
    "circminus(u) fadd smul(eta(t), lam)",
    "ghsub(u, smul(2, u_k))",
    "u fadd u_k fadd lam",
    "smul(-(1/2), tri(-1,0,1))",
]


@pytest.mark.parametrize("src", SCALAR_CORPUS)
def test_scalar_round_trip(src):
    ast = dsl.parse_scalar(src)
    assert dsl.parse_scalar(dsl.to_source(ast)) == ast


@pytest.mark.parametrize("src", FUZZY_CORPUS)
def test_fuzzy_round_trip(src):
    ast = dsl.parse_fuzzy(src)
    assert dsl.parse_fuzzy(dsl.to_source(ast)) == ast


# ---------------------------------------------------------------------------
# differential testing against direct module calls
# ---------------------------------------------------------------------------

def test_scalar_eval_matches_closed_form():
    ts = f.integer(20)
    e = dsl.parse_scalar("(r + v) / (1 + mu(t)) - pow(r, 2) * eta(t)")
    rng = np.random.default_rng(17)
    for _ in range(200):
        t = float(rng.integers(0, 20))
        r, v = rng.uniform(-5, 5, 2)
        env = Env(scalars={"t": t, "r": r, "v": v}, ts=ts)
        expected = (r + v) / 2.0 - r * r * 0.5
        assert dsl.eval_scalar(e, env) == pytest.approx(expected, abs=TOL)


def test_fuzzy_eval_matches_module_composition():
    ts = f.integer(20)
    expr = dsl.parse_fuzzy("circminus(u) fadd smul(eta(t), lam)")
    rng = np.random.default_rng(23)
    for _ in range(200):
        a = float(rng.uniform(-3, 0))
        b = float(rng.uniform(0, 3))
        c = float(rng.uniform(-2, 2))
        u = f.make_triangle(a, (a + b) / 2, b, GRID)
        lam = f.crisp(c, GRID)
        env = Env(scalars={"t": float(rng.integers(0, 20))},
                  fuzzies={"u": u, "lam": lam}, ts=ts, grid=GRID)
        got = dsl.eval_fuzzy(expr, env)
        expected = f.add(f.scale(-0.5, u), f.scale(0.5, lam))
        assert f.dist(got, expected) <= TOL


@pytest.mark.parametrize("src", [
    "circminus(u) fadd smul(eta(t), lam)",
    "ghsub(smul(-0.5, u), smul(0.25, u)) fadd smul(eta(t), lam) fadd crisp(0.1)",
    "ghsub(trap(-4,-1,1,4), u) fadd lam",
    "crisp(1) fadd smul(-1, trap(0,1,2,3))",
])
def test_eval_on_whole_vectors_equals_per_component_evaluation(src):
    expr = dsl.parse_fuzzy(src, variables={"u", "lam"}, scalar_variables={"t"})
    u = f.vector(f.make_triangle(-1, 0, 1, GRID), f.make_trapezoid(-2, -1, 0, 1, GRID),
                 f.crisp(0.5, GRID))
    lam = f.vector(f.crisp(0.25, GRID), f.make_triangle(0, 1, 2, GRID),
                   f.make_trapezoid(0, 0.1, 0.2, 0.3, GRID))
    got = dsl.eval_fuzzy(expr, fuzzy_env(u=u, lam=lam))
    per_component = [dsl.eval_fuzzy(expr, fuzzy_env(u=uc, lam=lc)) for uc, lc in zip(u, lam)]
    if isinstance(got, f.FuzzyNumber):  # names no fuzzy variable: one value for all
        got = f.vector(got, got, got)
    assert got.n == 3
    for row, want in zip(got, per_component):
        assert np.array_equal(row.lower, want.lower) and np.array_equal(row.upper, want.upper)
