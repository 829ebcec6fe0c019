"""Time scales: one setting for difference and differential equations.

Run:  python demos/02_time_scales.py
"""

import fuzzyts as f

# A time scale here is a finite, strictly increasing sample of instants.
# The forward jump sigma(t) is the next stored instant; the graininess
# mu(t) = sigma(t) - t measures how discrete the scale is at t.
for ts in (f.integer(8),
           f.qscale(1.0, 2.0, 6),
           f.intervals([[0.0, 1.0], [2.0, 3.0]], 0.25)):
    t0 = float(ts.points[len(ts) // 2])
    print(f"{ts.kind:<34} sigma({t0:g}) = {ts.sigma(t0):g}   mu = {ts.mu(t0):g}")

# The delta derivative is the forward difference quotient; on the integers
# it turns t^2 into 2t + 1 rather than 2t.
ts = f.integer(10)
sq = lambda t: t * t
print("\ndelta derivative of t^2 on the integers at t=3:",
      ts.delta_derivative(sq, 3.0))

# At finely sampled (right-dense) points the same quotient approximates the
# classical derivative, and the upper Dini estimate handles kinks:
dense = f.explicit([h * 1e-7 for h in range(-8, 9)])
print("upper Dini derivative of |t| at 0 on a dense sample:",
      dense.upper_dini(abs, 0.0))

# Regressive functions (1 + mu*p never zero) form the "circle" algebra used
# by exponential-type dynamics.
p = f.constant(ts, 0.25)
q = f.constant(ts, 0.5)
print("\ncircle plus  (p (+)r q)(0):", f.circle_plus(p, q)(0.0))
print("circle minus (p (-)r p)(0):", f.circle_minus(p, p)(0.0))
print("(-)r 1 with unit graininess:", f.ominus(f.constant(ts, 1.0))(0.0))
