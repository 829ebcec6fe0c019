"""The comparison principle in action: a scalar system dominates V(t, u(t)).

Run:  python demos/05_comparison_bound.py
"""

import fuzzyts as f
from fuzzyts import catalog
from fuzzyts.hybrid import StepMode, solve

grid = f.AlphaGrid.uniform(11)

# Bundle = fuzzy system + scalar companion + Lyapunov function V (here the
# distance to the crisp zero) + class-K bounds.
bundle = catalog.make_example_3_9(grid, horizon=10.0, r0=1.0)

traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=10.0)
scalar = f.solve_comparison(bundle.comparison, horizon=10.0)
V = bundle.lyapunov

print("t     V(t,u(t))      r(t)        margin")
for i, t in enumerate(traj.times):
    v = V(float(t), traj.values[i])
    r = float(scalar.values[i])
    print(f"{float(t):<5g} {v:<14.6g} {r:<11.6g} {r - v:.6g}")

report = f.verify_comparison_bound(V, traj, scalar)
print("\nbound V <= r holds at every point:", report["holds"])

# The domination needs the monotonicity hypotheses on g and the psi maps;
# they are checked by sampling:
mono = f.check_monotonicity_hypothesis(bundle.comparison, samples=500, seed=1)
print("monotonicity hypotheses pass:", mono["passed"])

# A decreasing g is flagged with concrete counterexample triples:
bad = f.ScalarHybridSystem(bundle.comparison.ts, bundle.comparison.switch_times,
                           lambda t, r, v: -2.0 * r,
                           bundle.comparison.psi, 1.0)
bad_report = f.check_monotonicity_hypothesis(bad, samples=500, seed=1)
print("decreasing g flagged:", not bad_report["passed"],
      "| first violation [t, r1, r2, gap]:", bad_report["g_mu_r_violations"][0])
