"""The little expression language behind config files.

Run:  python demos/07_expression_language.py
"""

import fuzzyts as f
from fuzzyts import dsl

grid = f.AlphaGrid.uniform(11)
ts = f.integer(10)

# Scalar expressions drive the comparison dynamics g(t, r, v), the
# Lyapunov function V(t, d), and the class-K bounds a(x), b(x).
g = dsl.parse_scalar("(w + w_k) / (1 + mu(t))")   # w, w_k alias r, v
print("g at t=3, r=2, v=1:",
      dsl.eval_scalar(g, scalars={"t": 3.0, "r": 2.0, "v": 1.0}, ts=ts))

# Fuzzy expressions name their operators to keep the two layers apart:
# fadd (sum), smul (scalar multiple), ghsub (Hukuhara difference),
# circminus (the regressive -1/(1+mu) multiple).
rhs = dsl.parse_fuzzy("circminus(u) fadd smul(eta(t), lam)")
u = dsl.eval_fuzzy(rhs, scalars={"t": 3.0},
                  fuzzies={"u": f.crisp(4.0, grid), "lam": f.crisp(2.0, grid)}, ts=ts, grid=grid)
print("rhs on crisp u=4, lam=2:", u.crisp_value())

# Errors carry positions and the tokens that would have been accepted:
try:
    dsl.parse_scalar("(r +")
except dsl.ParseError as exc:
    print("parse error:", exc)

try:
    dsl.eval_scalar(dsl.parse_scalar("1 / (r - r)"), scalars={"r": 3.0})
except dsl.EvalError as exc:
    print("eval error:", exc)
