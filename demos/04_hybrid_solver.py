"""Solving a switched fuzzy system with the Hukuhara-Euler stepper.

Run:  python demos/04_hybrid_solver.py
"""

import fuzzyts as f
from fuzzyts.hukuhara import delta_h_derivative
from fuzzyts.hybrid import StepMode, build_example_system, solve

grid = f.AlphaGrid.uniform(11)

# The catalog system: relaxation toward a switch value that is re-frozen at
# every switching instant (here every 5 integer steps).  On the first
# segment the switch value is the crisp zero.
sys = build_example_system(grid, n_switches=2, switch_gap=5)
print("switch times:", sys.switch_times)

# The expansive branch adds the step contribution as a Minkowski sum, so
# uncertainty can only grow:
traj = solve(sys, StepMode.EXPANSIVE, horizon=10.0)
print("\nexpansive branch (support width grows by x1.5 per step):")
for t in (0.0, 1.0, 2.0, 5.0, 10.0):
    v = traj.value_at(t)[0]
    print(f"  t={t:4g}  segment {traj.segment_at(t)}  support {v.cut(0)}")

# The contractive branch inverts the other decomposition of the derivative;
# it shrinks uncertainty but may cease to exist mid-run.
contr = solve(sys, StepMode.CONTRACTIVE, horizon=5.0)
print("\ncontractive branch on the first segment:")
for t in (0.0, 1.0, 2.0, 5.0):
    print(f"  t={t:4g}  support {contr.value_at(t)[0].cut(0)}")

# Each produced step satisfies the derivative recursion it came from: the
# Hukuhara delta derivative of the trajectory reproduces the right-hand side
# with the switch value frozen at each segment's first point.
frozen = {k: sys.switch_maps[k](t_k, traj.value_at(t_k))
          for k, t_k in enumerate(sys.switch_times)}
residual = max(
    f.dist(delta_h_derivative(traj, t),
           sys.rhs(t, traj.value_at(t), frozen[traj.segment_at(t)]))
    for t in map(float, traj.times[:-1]))
print("\nmax derivative residual (expansive run):", residual)

# Crisp initial data reduce everything to a plain real recursion:
crisp_sys = build_example_system(grid, 2, 5, u0=f.vector(f.crisp(1.0, grid)))
crisp_traj = solve(crisp_sys, horizon=10.0)
print("\ncrisp start 1.0 halves every step:",
      [round(crisp_traj.values[i][0].crisp_value(), 4) for i in range(6)])
