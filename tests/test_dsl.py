import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fuzzyts as f
import oracles
from fuzzyts import dsl, errors
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
    # the fuzzy grammar checks its fuzzy variables first, then the scalar
    # ones inside literals and smul; every message points at the start
    dsl.parse_fuzzy("smul(w, u) fadd tri(0, t, 1)", variables={"u"}, scalar_variables={"t", "r"})
    for src, fuzzy_vars, scalar_vars, message in [
        ("u fadd smul(d, lam)", {"u"}, {"t"}, "variable(s) ['lam'] not allowed here "
                                              "(allowed: ['u'])"),
        ("u fadd tri(0, t, x)", {"u"}, {"t"}, "variable(s) ['x'] not allowed here "
                                              "(allowed: ['t'])"),
        ("smul(eta(t) * r, u)", {"u"}, set(), "variable(s) ['r', 't'] not allowed here "
                                              "(allowed: [])"),
    ]:
        with pytest.raises(ParseError) as err:
            dsl.parse_fuzzy(src, variables=fuzzy_vars, scalar_variables=scalar_vars)
        assert str(err.value) == f"{message} at line 1, column 1"


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


def test_nodes_compare_and_hash_by_fields_not_span():
    a = dsl.BinOp("+", dsl.Num(1.0, span=(1, 1)), dsl.Var("x", span=(1, 3)), span=(1, 2))
    b = dsl.BinOp("+", dsl.Num(1.0), dsl.Var("x"))
    assert a == b and hash(a) == hash(b) and a.span == (1, 2) and b.span == (0, 0)
    assert a != dsl.BinOp("-", dsl.Num(1.0), dsl.Var("x"))
    assert dsl.Var("x") != dsl.FuzzyVar("x") and dsl.Num(1.0) != (1.0,)
    assert len({dsl.parse_fuzzy("u fadd lam"), dsl.parse_fuzzy(" u  fadd  lam")}) == 1


def test_nodes_are_frozen_and_take_their_field_count():
    node = dsl.Neg(dsl.Num(2.0))
    for name in ("operand", "span", "other"):
        with pytest.raises(AttributeError):
            setattr(node, name, dsl.Num(3.0))
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert node == dsl.Neg(dsl.Num(2.0))
    with pytest.raises(TypeError):
        dsl.Call("min", (dsl.Num(1.0),), dsl.Num(2.0))
    with pytest.raises(TypeError):
        dsl.SMul(dsl.Num(1.0))


def test_node_repr_names_the_class_and_fields():
    assert repr(dsl.parse_fuzzy("smul(2, u)")) == \
        "SMul(scalar=Num(value=2.0), operand=FuzzyVar(name='u'))"


def test_dsl_errors_are_the_shared_error_classes():
    assert dsl.ParseError is errors.ParseError and ParseError is errors.ParseError
    assert dsl.EvalError is errors.EvalError and EvalError is errors.EvalError


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


# ---------------------------------------------------------------------------
# array bindings: one evaluator, element by element
# ---------------------------------------------------------------------------

ARRAY_EXPRS = [
    "r + v", "r - v", "r * v", "r / v", "-r", "-(r * 0)", "abs(r)",
    "min(r, v)", "max(r, v)", "min(v, r) - max(v, r)", "pow(r, v)", "pow(abs(r), 0.5)",
    "mu(t) * r + eta(t) * v", "(sigma(t) - r) / (1 + abs(d))",
    "max(min(r, -v), d) / v", "pow(d, 2) / (r - v) + 1",
]
# ties, signed zeros and values whose pow overflows or leaves the domain
ARRAY_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300]),
                         st.floats(-1e3, 1e3))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # as floats: inf
@pytest.mark.parametrize("src", ARRAY_EXPRS)
@given(data=st.data(), size=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_array_bindings_equal_float_evaluation_element_by_element(src, data, size):
    e = dsl.parse_scalar(src)
    ts = f.qscale(1.0, 2.0, 5)
    arrays = {name: np.array(data.draw(st.lists(ARRAY_FLOATS, min_size=size, max_size=size)))
              for name in ("r", "v", "d")}
    expected, spans = [], set()
    for i in range(size):
        env = Env(scalars={"t": 4.0, **{k: float(a[i]) for k, a in arrays.items()}}, ts=ts)
        try:
            expected.append(dsl.eval_scalar(e, env))
        except EvalError as exc:
            spans.add(exc.span)
    env = Env(scalars={"t": 4.0, **arrays}, ts=ts)
    if spans:  # an element fails, so the array fails at a node where one does
        with pytest.raises(EvalError) as info:
            dsl.eval_scalar(e, env)
        assert info.value.span in spans
    else:
        got = np.broadcast_to(dsl.eval_scalar(e, env), (size,))
        assert [bits(x) for x in got] == [bits(x) for x in expected]


def test_array_division_by_any_zero_raises_at_the_division():
    e = dsl.parse_scalar("r + 1 / v")
    with pytest.raises(EvalError) as float_info:
        dsl.eval_scalar(e, Env(scalars={"r": 1.0, "v": -0.0}))
    with pytest.raises(EvalError) as array_info:
        dsl.eval_scalar(e, Env(scalars={"r": np.ones(3), "v": np.array([2.0, -0.0, 1.0])}))
    assert array_info.value.span == float_info.value.span == (1, 7)
    assert "division by zero" in str(array_info.value)


@given(pairs=st.lists(st.tuples(ARRAY_FLOATS, ARRAY_FLOATS), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_array_pow_is_math_pow_on_every_element(pairs):
    env = Env(scalars={"r": np.array([a for a, _ in pairs]), "v": np.array([b for _, b in pairs])})
    e = dsl.parse_scalar("pow(r, v)")
    try:
        want = [math.pow(a, b) for a, b in pairs]
    except (ValueError, OverflowError):
        with pytest.raises(EvalError):
            dsl.eval_scalar(e, env)
        return
    assert bits(dsl.eval_scalar(e, env)) == bits(want)


def test_min_max_pick_what_the_builtins_pick():
    r, v = np.array([0.0, -0.0, 1.0]), np.array([-0.0, 0.0, 1.0])
    env = Env(scalars={"r": r, "v": v})
    for func, builtin in (("min", min), ("max", max)):
        got = dsl.eval_scalar(dsl.parse_scalar(f"{func}(r, v)"), env)
        assert [bits(x) for x in got] == [bits(builtin(a, b)) for a, b in zip(r.tolist(), v.tolist())]


# ---------------------------------------------------------------------------
# compiled closures against the tree walk they replace
# ---------------------------------------------------------------------------

TS = f.qscale(1.0, 2.0, 5)  # points 1, 2, 4, ..., 32
SCALAR_NAMES = ["t", "r", "v", "w", "w_k", "d", "x"]
SPECIAL = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e300, -1e300, math.inf, -math.inf, math.nan]


def scalar_sources(max_leaves=8):
    leaves = st.one_of(st.sampled_from(["0", "1", "2", "0.5", "3.25", "1e300"]),
                       st.sampled_from(SCALAR_NAMES + ["q"]))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({' '.join(p)})"),
        inner.map(lambda a: f"-{a}"),
        st.tuples(st.sampled_from(["abs", "mu", "sigma", "eta"]), inner).map(
            lambda p: f"{p[0]}({p[1]})"),
        st.tuples(st.sampled_from(["min", "max", "pow"]), inner, inner).map(
            lambda p: f"{p[0]}({p[1]}, {p[2]})"),
    ), max_leaves=max_leaves)


def fuzzy_sources():
    def literal_args(count):  # mostly ordered numbers, so that most literals exist
        ordered = st.lists(st.floats(-2, 2), min_size=count, max_size=count).map(
            lambda xs: [repr(x) for x in sorted(xs)])
        return st.one_of(ordered, ordered, st.lists(scalar_sources(2), min_size=count,
                                                    max_size=count))
    literal = st.sampled_from([("tri", 3), ("trap", 4), ("crisp", 1)]).flatmap(
        lambda kind: literal_args(kind[1]).map(lambda args: f"{kind[0]}({', '.join(args)})"))
    leaves = st.one_of(st.sampled_from(["u", "lam", "u_k"]), literal)
    return st.recursive(leaves, lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]} fadd {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"ghsub({p[0]}, {p[1]})"),
        st.tuples(scalar_sources(3), inner).map(lambda p: f"smul({p[0]}, {p[1]})"),
        inner.map(lambda a: f"circminus({a})"),
    ), max_leaves=6)


def scalar_values(size):
    value = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e3, 1e3))
    if size is None:
        return value
    return st.lists(value, min_size=size, max_size=size).map(np.array)


def outcome(run):
    """A result as its type and bytes, or an error as its type, message and span."""
    with np.errstate(all="ignore"):  # the same operations warn the same way
        try:
            value = run()
        except Exception as exc:
            return ("error", type(exc), str(exc), getattr(exc, "span", None))
    if isinstance(value, (f.FuzzyNumber, f.FuzzyVector)):
        return (type(value), value.lower.tobytes(), value.upper.tobytes())
    return (type(value), np.asarray(value).tobytes())


@given(data=st.data(), src=scalar_sources(), size=st.sampled_from([None, 1, 4]))
@settings(max_examples=200, deadline=None)
def test_compiled_scalar_expressions_equal_the_tree_walk(data, src, size):
    e = dsl.parse_scalar(src)
    names = data.draw(st.lists(st.sampled_from(SCALAR_NAMES), unique=True))
    ts = data.draw(st.sampled_from([TS, None]))
    run = dsl.compile_expr(e, tuple(names), ts=ts)
    for _ in range(2):  # one compiled closure, called on fresh values
        scalars = {name: data.draw(st.sampled_from(TS.points.tolist() + [0.3, 32.0]))
                   if name == "t" else data.draw(scalar_values(size)) for name in names}
        env = Env(scalars=scalars, ts=ts)
        want = outcome(lambda: oracles.eval_scalar(e, env))
        assert outcome(lambda: run(*scalars.values())) == want
        assert outcome(lambda: dsl.eval_scalar(e, env)) == want


FUZZY_STATES = [f.make_triangle(-1, 0, 1, GRID), f.make_trapezoid(-2, -1, 0, 1, GRID),
                f.crisp(0.5, GRID), f.make_triangle(-0.3, 0.1, 0.9, GRID),
                f.vector(f.make_triangle(-1, 0, 1, GRID), f.crisp(0.5, GRID)),
                f.vector(f.make_trapezoid(0, 1, 2, 4, GRID), f.make_triangle(-2, 0, 1, GRID))]


@given(data=st.data(), src=fuzzy_sources())
@settings(max_examples=120, deadline=None)
def test_compiled_fuzzy_expressions_equal_the_tree_walk(data, src):
    e = dsl.parse_fuzzy(src)

    def bound(names):  # each name is left unbound one time in eight
        return [name for name in names if data.draw(st.integers(0, 7))]
    fuzzies = {name: data.draw(st.sampled_from(FUZZY_STATES)) for name in bound(["u", "lam", "u_k"])}
    scalars = {name: data.draw(st.sampled_from(TS.points.tolist() + [0.3]))
               if name == "t" else data.draw(scalar_values(None)) for name in bound(SCALAR_NAMES)}
    env = Env(scalars=scalars, fuzzies=fuzzies, ts=data.draw(st.sampled_from([TS] * 7 + [None])),
              grid=data.draw(st.sampled_from([GRID] * 7 + [None])))
    want = outcome(lambda: oracles.eval_fuzzy(e, env))
    assert outcome(lambda: dsl.eval_fuzzy(e, env)) == want
