"""Expression language for configuring scalar and fuzzy right-hand sides.

Two small grammars share one tokenizer and one scalar core (see
docs/dsl-grammar.md for the EBNF).  Scalar expressions cover comparison
dynamics g, Lyapunov functions V, class-K bounds a and b, and psi maps;
fuzzy expressions cover system right-hand sides and switch maps.  Fuzzy
operators are keyword-named (fadd, smul, ghsub, circminus) so the two
layers cannot be confused by overloading.

    scalar:  (r + v) / (1 + mu(t))
    fuzzy:   circminus(u) fadd smul(eta(t), lam)

Parsing is recursive descent with an explicit precedence ladder:
unary minus binds tighter than * and /, which bind tighter than + and -;
binary operators associate left.  Each expression is compiled once into
nested closures (compile_expr); evaluation is pure.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import fuzzy
from .errors import FuzzyTSError, NoSuccessorError, UnknownPointError
from .fuzzy import AlphaGrid, FuzzyNumber, FuzzyVector
from .timescale import TimeScale


class ParseError(FuzzyTSError):
    """Syntax error with position and the token set that was expected."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{hint}")


class EvalError(FuzzyTSError):
    """Evaluation failure carrying the source span of the offending node."""

    def __init__(self, message: str, span: tuple[int, int] = (0, 0)):
        self.span = span
        super().__init__(f"{message} at line {span[0]}, column {span[1]}")


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*/(),"


@dataclass(frozen=True)
class Token:
    kind: str  # "num", "ident", one of _SYMBOLS, or "eof"
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        if c in _SYMBOLS:
            tokens.append(Token(c, c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < len(src) and src[i + 1].isdigit()):
            start = i
            while i < len(src) and src[i].isdigit():
                i += 1
            if i < len(src) and src[i] == ".":
                i += 1
                while i < len(src) and src[i].isdigit():
                    i += 1
            if i < len(src) and src[i] in "eE":
                j = i + 1
                if j < len(src) and src[j] in "+-":
                    j += 1
                if j < len(src) and src[j].isdigit():
                    i = j
                    while i < len(src) and src[i].isdigit():
                        i += 1
            text = src[start:i]
            tokens.append(Token("num", text, line, col))
            col += len(text)
            continue
        if c.isalpha() or c == "_":
            start = i
            while i < len(src) and (src[i].isalnum() or src[i] == "_"):
                i += 1
            text = src[start:i]
            tokens.append(Token("ident", text, line, col))
            col += len(text)
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------

def _span_field():
    return field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Num:
    value: float
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class Var:
    name: str
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class Neg:
    operand: "ScalarExpr"
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "ScalarExpr"
    right: "ScalarExpr"
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["ScalarExpr", ...]
    span: tuple[int, int] = _span_field()


ScalarExpr = Num | Var | Neg | BinOp | Call


@dataclass(frozen=True)
class FuzzyVar:
    name: str
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class FuzzyLit:
    kind: str  # tri | trap | crisp
    args: tuple[ScalarExpr, ...]
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class FAdd:
    left: "FuzzyExpr"
    right: "FuzzyExpr"
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class SMul:
    scalar: ScalarExpr
    operand: "FuzzyExpr"
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class GHSub:
    left: "FuzzyExpr"
    right: "FuzzyExpr"
    span: tuple[int, int] = _span_field()


@dataclass(frozen=True)
class CircMinus:
    operand: "FuzzyExpr"
    span: tuple[int, int] = _span_field()


FuzzyExpr = FuzzyVar | FuzzyLit | FAdd | SMul | GHSub | CircMinus

SCALAR_FUNCS = {"mu": 1, "sigma": 1, "eta": 1, "abs": 1, "min": 2, "max": 2, "pow": 2}
SCALAR_VARS = {"t", "r", "v", "w", "w_k", "d", "x"}
FUZZY_VARS = {"u", "u_k", "lam"}
FUZZY_LITS = {"tri": 3, "trap": 4, "crisp": 1}
# w and w_k are accepted spellings for the comparison state and its frozen
# switch value; they resolve to the same bindings as r and v.
VAR_ALIASES = {"w": "r", "w_k": "v", "r": "w", "v": "w_k"}


class _Parser:
    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.pos = 0
        # names of the Var and FuzzyVar nodes built so far
        self.scalar_names: set[str] = set()
        self.fuzzy_names: set[str] = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                             expected=(kind,))
        return self.advance()

    def fail(self, expected: tuple[str, ...]) -> "ParseError":
        tok = self.peek()
        return ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                          expected=expected)

    # -- scalar grammar -----------------------------------------------------

    def scalar(self) -> ScalarExpr:
        node = self.product()
        while self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.product()
            node = BinOp(op.kind, node, rhs, span=(op.line, op.col))
        return node

    def product(self) -> ScalarExpr:
        node = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.advance()
            rhs = self.unary()
            node = BinOp(op.kind, node, rhs, span=(op.line, op.col))
        return node

    def unary(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            return Neg(self.unary(), span=(tok.line, tok.col))
        return self.scalar_atom()

    def scalar_atom(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text), span=(tok.line, tok.col))
        if tok.kind == "(":
            self.advance()
            node = self.scalar()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in SCALAR_FUNCS:
                arity = SCALAR_FUNCS[tok.text]
                args = self.call_args(self.scalar)
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.line, tok.col)
                return Call(tok.text, tuple(args), span=(tok.line, tok.col))
            if self.peek().kind == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.line, tok.col,
                                 expected=tuple(sorted(SCALAR_FUNCS)))
            self.scalar_names.add(tok.text)
            return Var(tok.text, span=(tok.line, tok.col))
        raise self.fail(expected=("num", "ident", "(", "-"))

    def call_args(self, item) -> list:
        self.expect("(")
        args = [item()]
        while self.peek().kind == ",":
            self.advance()
            args.append(item())
        self.expect(")")
        return args

    # -- fuzzy grammar ------------------------------------------------------

    def fuzzy_expr(self) -> FuzzyExpr:
        node = self.fuzzy_atom()
        while self.peek().kind == "ident" and self.peek().text == "fadd":
            op = self.advance()
            rhs = self.fuzzy_atom()
            node = FAdd(node, rhs, span=(op.line, op.col))
        return node

    def fuzzy_atom(self) -> FuzzyExpr:
        tok = self.peek()
        if tok.kind == "(":
            self.advance()
            node = self.fuzzy_expr()
            self.expect(")")
            return node
        if tok.kind == "ident":
            self.advance()
            if tok.text in FUZZY_LITS:
                arity = FUZZY_LITS[tok.text]
                args = self.call_args(self.scalar)
                if len(args) != arity:
                    raise ParseError(
                        f"{tok.text} takes {arity} argument(s), got {len(args)}",
                        tok.line, tok.col)
                return FuzzyLit(tok.text, tuple(args), span=(tok.line, tok.col))
            if tok.text == "smul":
                self.expect("(")
                s = self.scalar()
                self.expect(",")
                f = self.fuzzy_expr()
                self.expect(")")
                return SMul(s, f, span=(tok.line, tok.col))
            if tok.text == "ghsub":
                self.expect("(")
                a = self.fuzzy_expr()
                self.expect(",")
                b = self.fuzzy_expr()
                self.expect(")")
                return GHSub(a, b, span=(tok.line, tok.col))
            if tok.text == "circminus":
                self.expect("(")
                f = self.fuzzy_expr()
                self.expect(")")
                return CircMinus(f, span=(tok.line, tok.col))
            if tok.text in FUZZY_VARS:
                self.fuzzy_names.add(tok.text)
                return FuzzyVar(tok.text, span=(tok.line, tok.col))
            raise ParseError(f"unknown fuzzy term {tok.text!r}", tok.line, tok.col,
                             expected=tuple(sorted(FUZZY_VARS | set(FUZZY_LITS)
                                                   | {"smul", "ghsub", "circminus"})))
        raise self.fail(expected=("ident", "("))


def parse_scalar(src: str, variables: set[str] | None = None) -> ScalarExpr:
    """Parse a scalar expression; optionally restrict its free variables."""
    if not src.strip():
        raise ParseError("empty expression", 1, 1)
    p = _Parser(src)
    node = p.scalar()
    p.expect("eof")
    _check_vars(p.scalar_names, variables)
    return node


def parse_fuzzy(src: str, variables: set[str] | None = None,
                scalar_variables: set[str] | None = None) -> FuzzyExpr:
    """Parse a fuzzy expression; optionally restrict its free variables."""
    if not src.strip():
        raise ParseError("empty expression", 1, 1)
    p = _Parser(src)
    node = p.fuzzy_expr()
    p.expect("eof")
    _check_vars(p.fuzzy_names, variables)
    _check_vars(p.scalar_names, scalar_variables)
    return node


def _check_vars(seen: set[str], allowed: set[str] | None) -> None:
    if allowed is None:
        return
    closed = set(allowed)
    for name in allowed:
        alias = VAR_ALIASES.get(name)
        if alias:
            closed.add(alias)
    stray = seen - closed
    if stray:
        raise ParseError(
            f"variable(s) {sorted(stray)} not allowed here (allowed: {sorted(allowed)})",
            1, 1)


# ---------------------------------------------------------------------------
# Pretty printing (round-trips through the parser to an identical tree)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def to_source(e) -> str:
    return _print_scalar(e, 0) if isinstance(e, ScalarExpr) else _print_fuzzy(e)


def _print_scalar(e: ScalarExpr, parent_prec: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return "-" + _print_scalar(e.operand, 3)
    if isinstance(e, Call):
        return f"{e.func}({', '.join(_print_scalar(a, 0) for a in e.args)})"
    prec = _PREC[e.op]
    left = _print_scalar(e.left, prec - 1)
    # the right operand of - and / must re-parenthesize equal precedence
    right = _print_scalar(e.right, prec)
    text = f"{left} {e.op} {right}"
    return f"({text})" if prec <= parent_prec else text


def _print_fuzzy(e: FuzzyExpr) -> str:
    if isinstance(e, FuzzyVar):
        return e.name
    if isinstance(e, FuzzyLit):
        return f"{e.kind}({', '.join(_print_scalar(a, 0) for a in e.args)})"
    if isinstance(e, FAdd):
        left = _print_fuzzy(e.left)
        right = _print_fuzzy(e.right)
        if isinstance(e.right, FAdd):
            right = f"({right})"
        return f"{left} fadd {right}"
    if isinstance(e, SMul):
        return f"smul({_print_scalar(e.scalar, 0)}, {_print_fuzzy(e.operand)})"
    if isinstance(e, GHSub):
        return f"ghsub({_print_fuzzy(e.left)}, {_print_fuzzy(e.right)})"
    if isinstance(e, CircMinus):
        return f"circminus({_print_fuzzy(e.operand)})"
    raise TypeError(f"not a fuzzy expression: {e!r}")


# ---------------------------------------------------------------------------
# Compilation (Feeley & Lapalme 1987: one closure per syntax node)
# ---------------------------------------------------------------------------

@dataclass
class Env:
    """Bindings for evaluation.

    ``scalars`` binds scalar variables (floats or arrays), ``fuzzies`` binds
    fuzzy variables (fuzzy numbers, or whole fuzzy vectors);
    ``ts`` supplies the time-scale context required by mu/sigma/eta, and
    ``grid`` the alpha grid required by fuzzy literals.
    """

    scalars: dict[str, float | np.ndarray] = field(default_factory=dict)
    fuzzies: dict[str, FuzzyNumber | FuzzyVector] = field(default_factory=dict)
    ts: TimeScale | None = None
    grid: AlphaGrid | None = None


_MATH_POW = np.frompyfunc(math.pow, 2, 1)  # math.pow on every element
_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_LITERALS = {"tri": "make_triangle", "trap": "make_trapezoid", "crisp": "crisp"}


def compile_expr(e: ScalarExpr | FuzzyExpr, scalars: tuple[str, ...] = (),
                 fuzzies: tuple[str, ...] = (), ts: TimeScale | None = None,
                 grid: AlphaGrid | None = None):
    """Compile once into a function of the values of ``scalars``, then of
    ``fuzzies``, in order: ``compile_expr(e, ("t", "r"), ts=ts)(t, r)``.

    Scalar values may be floats or arrays; arrays act element by element,
    each element as its float evaluation (min and max as the builtins, pow
    as math.pow), and an error in any element raises EvalError at that
    node.  Fuzzy operations act component-wise, so with vectors bound the
    result is a vector.  A gH difference that does not exist propagates as
    GHDifferenceError.  An unbound variable, or mu/sigma/eta/circminus
    without ``ts`` or a literal without ``grid``, raises EvalError when
    evaluation reaches it.
    """
    slots = {name: i for i, name in enumerate(scalars)}
    fuzzy_slots = {name: i for i, name in enumerate(fuzzies, len(scalars))}
    root = _compile(e, slots, fuzzy_slots, ts, grid)
    return lambda *values: root(values)


def _fail(message: str, span):
    def fail(x):
        raise EvalError(message, span)
    return fail


def _compile(e, slots: dict[str, int], fuzzy_slots: dict[str, int], ts, grid):
    """The closure that evaluates ``e`` on the tuple of bound values."""
    def sub(node):
        return _compile(node, slots, fuzzy_slots, ts, grid)

    span = e.span
    if isinstance(e, Num):
        value = e.value
        return lambda x: value
    if isinstance(e, Var):
        slot = slots.get(e.name)
        if slot is None:
            slot = slots.get(VAR_ALIASES.get(e.name))
        if slot is None:
            return _fail(f"unbound variable {e.name!r}", span)
        return operator.itemgetter(slot)
    if isinstance(e, FuzzyVar):
        slot = fuzzy_slots.get(e.name)
        if slot is None:
            return _fail(f"unbound fuzzy variable {e.name!r}", span)
        return operator.itemgetter(slot)
    if isinstance(e, Neg):
        operand = sub(e.operand)
        return lambda x: -operand(x)
    if isinstance(e, BinOp):
        a, b = sub(e.left), sub(e.right)
        if e.op in _ARITHMETIC:
            op = _ARITHMETIC[e.op]
            return lambda x: op(a(x), b(x))

        def divide(x):
            num, den = a(x), b(x)
            if np.any(den == 0.0):
                raise EvalError("division by zero", span)
            return num / den
        return divide
    if isinstance(e, FAdd):
        a, b = sub(e.left), sub(e.right)
        return lambda x: fuzzy.add(a(x), b(x))
    if isinstance(e, GHSub):
        a, b = sub(e.left), sub(e.right)
        return lambda x: fuzzy.gh_difference(a(x), b(x))
    if isinstance(e, SMul):
        k, operand = sub(e.scalar), sub(e.operand)
        return lambda x: fuzzy.scale(k(x), operand(x))
    if isinstance(e, FuzzyLit):
        if grid is None:
            return _fail("no alpha grid in scope for a fuzzy literal", span)
        make, args = _LITERALS[e.kind], [sub(a) for a in e.args]

        def literal(x):
            values = [a(x) for a in args]
            try:
                return getattr(fuzzy, make)(*values, grid)
            except FuzzyTSError as exc:
                raise EvalError(str(exc), span) from exc
        return literal
    if isinstance(e, CircMinus):
        if ts is None:
            return _fail("no time-scale context for mu/sigma/eta", span)
        slot = slots.get("t")
        if slot is None:
            return _fail("unbound variable 't'", span)
        operand = sub(e.operand)

        def circminus(x):
            try:
                mu = ts.mu(x[slot])
            except (NoSuccessorError, UnknownPointError) as exc:
                raise EvalError(str(exc), span) from exc
            return fuzzy.scale(-1.0 / (1.0 + mu), operand(x))
        return circminus
    if e.func in ("mu", "sigma", "eta"):
        if ts is None:
            return _fail("no time-scale context for mu/sigma/eta", span)
        func, t = e.func, sub(e.args[0])

        def at(x):
            point = t(x)
            try:
                if func == "sigma":
                    return ts.sigma(point)
                mu = ts.mu(point)
            except (NoSuccessorError, UnknownPointError) as exc:
                raise EvalError(str(exc), span) from exc
            return mu if func == "mu" else 1.0 / (1.0 + mu)
        return at
    args = [sub(a) for a in e.args]
    if e.func == "abs":
        return lambda x: abs(args[0](x))
    a, b = args
    if e.func in ("min", "max"):
        # min(a, b) is b if b < a else a, and max(a, b) is b if b > a else a
        wins = operator.lt if e.func == "min" else operator.gt

        def pick(x):
            p, q = a(x), b(x)
            return np.where(wins(q, p), q, p)[()]
        return pick

    def power(x):
        base, exponent = a(x), b(x)
        try:
            return np.asarray(_MATH_POW(base, exponent), dtype=float)[()]
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"pow({base}, {exponent}) failed: {exc}", span) from exc
    return power


def eval_scalar(e: ScalarExpr, env: Env) -> float | np.ndarray:
    """Evaluate once under ``env``: compile, then call (see compile_expr)."""
    run = compile_expr(e, tuple(env.scalars), tuple(env.fuzzies), env.ts, env.grid)
    return run(*env.scalars.values(), *env.fuzzies.values())


def eval_fuzzy(e: FuzzyExpr, env: Env) -> FuzzyNumber | FuzzyVector:
    """Evaluate once under ``env``: compile, then call (see compile_expr)."""
    run = compile_expr(e, tuple(env.scalars), tuple(env.fuzzies), env.ts, env.grid)
    return run(*env.scalars.values(), *env.fuzzies.values())
