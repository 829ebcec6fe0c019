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
from typing import NamedTuple

import numpy as np

from . import fuzzy
from .errors import (
    EvalError,
    Frozen,
    FuzzyTSError,
    NoSuccessorError,
    ParseError,
    UnknownPointError,
)
from .fuzzy import AlphaGrid, FuzzyNumber, FuzzyVector
from .timescale import TimeScale

# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

_SYMBOLS = "+-*/(),"
_DIGITS = frozenset("0123456789")  # a NUMBER's digits are ASCII only


class Token(NamedTuple):
    kind: str  # "num", "ident", one of _SYMBOLS, or "eof"
    text: str
    line: int
    col: int


def _past_digits(src: str, i: int) -> int:
    while i < len(src) and src[i] in _DIGITS:
        i += 1
    return i


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
        if c in _DIGITS or (c == "." and src[i + 1:i + 2] in _DIGITS):
            start = i
            i = _past_digits(src, i)
            if src[i:i + 1] == ".":
                i = _past_digits(src, i + 1)
            if src[i:i + 1] in ("e", "E"):
                j = i + 2 if src[i + 1:i + 2] in ("+", "-") else i + 1
                if src[j:j + 1] in _DIGITS:
                    i = _past_digits(src, j)
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

class _Node(Frozen):
    """A frozen syntax node: its ``_fields``, then a source ``span`` that
    equality, hashing and repr ignore."""

    __slots__ = ("span",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, span: tuple[int, int] = (0, 0)):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} field(s), "
                            f"got {len(values)}")
        for name, value in zip(self._fields + ("span",), values + (span,)):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


class Num(_Node):
    __slots__ = _fields = ("value",)  # float


class Var(_Node):
    __slots__ = _fields = ("name",)


class Neg(_Node):
    __slots__ = _fields = ("operand",)  # ScalarExpr


class BinOp(_Node):
    __slots__ = _fields = ("op", "left", "right")  # str, ScalarExpr, ScalarExpr


class Call(_Node):
    __slots__ = _fields = ("func", "args")  # str, tuple of ScalarExpr


ScalarExpr = Num | Var | Neg | BinOp | Call


class FuzzyVar(_Node):
    __slots__ = _fields = ("name",)


class FuzzyLit(_Node):
    __slots__ = _fields = ("kind", "args")  # tri | trap | crisp, tuple of ScalarExpr


class FAdd(_Node):
    __slots__ = _fields = ("left", "right")  # FuzzyExpr, FuzzyExpr


class SMul(_Node):
    __slots__ = _fields = ("scalar", "operand")  # ScalarExpr, FuzzyExpr


class GHSub(_Node):
    __slots__ = _fields = ("left", "right")  # FuzzyExpr, FuzzyExpr


class CircMinus(_Node):
    __slots__ = _fields = ("operand",)  # FuzzyExpr


FuzzyExpr = FuzzyVar | FuzzyLit | FAdd | SMul | GHSub | CircMinus

SCALAR_FUNCS = {"mu": 1, "sigma": 1, "eta": 1, "abs": 1, "min": 2, "max": 2, "pow": 2}
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

    def fail(self, expected: tuple[str, ...]) -> "ParseError":
        tok = self.peek()
        return ParseError(f"unexpected {tok.kind} {tok.text!r}", tok.line, tok.col,
                          expected=expected)

    def expect(self, kind: str) -> Token:
        if self.peek().kind != kind:
            raise self.fail(expected=(kind,))
        return self.advance()

    def chain(self, ops: tuple[str, ...], operand, make):
        """``operand``s joined by the operators ``ops``, associating left;
        ``make(op, left, right, span=...)`` builds each node."""
        node = operand()
        while self.peek().text in ops:
            op = self.advance()
            node = make(op.text, node, operand(), span=(op.line, op.col))
        return node

    # -- scalar grammar -----------------------------------------------------

    def scalar(self) -> ScalarExpr:
        return self.chain(("+", "-"), self.product, BinOp)

    def product(self) -> ScalarExpr:
        return self.chain(("*", "/"), self.unary, BinOp)

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
                return Call(tok.text, self.call_args(tok, SCALAR_FUNCS[tok.text]),
                            span=(tok.line, tok.col))
            if self.peek().kind == "(":
                raise ParseError(f"unknown function {tok.text!r}", tok.line, tok.col,
                                 expected=tuple(sorted(SCALAR_FUNCS)))
            self.scalar_names.add(tok.text)
            return Var(tok.text, span=(tok.line, tok.col))
        raise self.fail(expected=("num", "ident", "(", "-"))

    def call_args(self, tok: Token, arity: int) -> tuple:
        """The scalar arguments of the call named by ``tok``: ``arity`` of them."""
        self.expect("(")
        args = [self.scalar()]
        while self.peek().kind == ",":
            self.advance()
            args.append(self.scalar())
        self.expect(")")
        if len(args) != arity:
            raise ParseError(f"{tok.text} takes {arity} argument(s), got {len(args)}",
                             tok.line, tok.col)
        return tuple(args)

    # -- fuzzy grammar ------------------------------------------------------

    def fuzzy_expr(self) -> FuzzyExpr:
        return self.chain(("fadd",), self.fuzzy_atom,
                          lambda op, left, right, span: FAdd(left, right, span=span))

    # the fuzzy operators written as calls: the node, and each argument's rule
    OPERATORS = {"smul": (SMul, (scalar, fuzzy_expr)),
                 "ghsub": (GHSub, (fuzzy_expr, fuzzy_expr)),
                 "circminus": (CircMinus, (fuzzy_expr,))}

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
                return FuzzyLit(tok.text, self.call_args(tok, FUZZY_LITS[tok.text]),
                                span=(tok.line, tok.col))
            if tok.text in self.OPERATORS:
                node, rules = self.OPERATORS[tok.text]
                args = []
                for i, rule in enumerate(rules):
                    self.expect("," if i else "(")
                    args.append(rule(self))
                self.expect(")")
                return node(*args, span=(tok.line, tok.col))
            if tok.text in FUZZY_VARS:
                self.fuzzy_names.add(tok.text)
                return FuzzyVar(tok.text, span=(tok.line, tok.col))
            raise ParseError(f"unknown fuzzy term {tok.text!r}", tok.line, tok.col,
                             expected=tuple(sorted(FUZZY_VARS | set(FUZZY_LITS)
                                                   | set(self.OPERATORS))))
        raise self.fail(expected=("ident", "("))


def _parse(src: str, rule) -> tuple[_Parser, ScalarExpr | FuzzyExpr]:
    """The parser after ``rule`` has read all of ``src``, and the tree it built."""
    if not src.strip():
        raise ParseError("empty expression", 1, 1)
    p = _Parser(src)
    node = rule(p)
    p.expect("eof")
    return p, node


def parse_scalar(src: str, variables: set[str] | None = None) -> ScalarExpr:
    """Parse a scalar expression; optionally restrict its free variables."""
    p, node = _parse(src, _Parser.scalar)
    _check_vars(p.scalar_names, variables)
    return node


def parse_fuzzy(src: str, variables: set[str] | None = None,
                scalar_variables: set[str] | None = None) -> FuzzyExpr:
    """Parse a fuzzy expression; optionally restrict its free variables."""
    p, node = _parse(src, _Parser.fuzzy_expr)
    _check_vars(p.fuzzy_names, variables)
    _check_vars(p.scalar_names, scalar_variables)
    return node


def _check_vars(seen: set[str], allowed: set[str] | None) -> None:
    if allowed is None:
        return
    known = set(allowed)
    for name in allowed:
        alias = VAR_ALIASES.get(name)
        if alias:
            known.add(alias)
    stray = seen - known
    if stray:
        raise ParseError(
            f"variable(s) {sorted(stray)} not allowed here (allowed: {sorted(allowed)})",
            1, 1)


# ---------------------------------------------------------------------------
# Compilation (Feeley & Lapalme 1987: one closure per syntax node)
# ---------------------------------------------------------------------------

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
    if isinstance(e, CircMinus):  # smul(-eta(t), operand), at this node's span
        eta = Call("eta", (Var("t", span=span),), span=span)
        return sub(SMul(Neg(eta, span=span), e.operand, span=span))
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


def eval_scalar(e: ScalarExpr | FuzzyExpr, scalars: dict[str, float | np.ndarray] | None = None,
                fuzzies: dict[str, FuzzyNumber | FuzzyVector] | None = None,
                ts: TimeScale | None = None, grid: AlphaGrid | None = None):
    """Evaluate once: compile, then call (see compile_expr).  ``scalars`` binds
    scalar variables (floats or arrays), ``fuzzies`` fuzzy variables (fuzzy
    numbers, or whole fuzzy vectors); ``ts`` supplies the time-scale context
    required by mu/sigma/eta, and ``grid`` the alpha grid required by fuzzy
    literals."""
    scalars, fuzzies = scalars or {}, fuzzies or {}
    run = compile_expr(e, tuple(scalars), tuple(fuzzies), ts, grid)
    return run(*scalars.values(), *fuzzies.values())


eval_fuzzy = eval_scalar
