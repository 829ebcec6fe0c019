"""Differentiating fuzzy trajectories with the Hukuhara delta derivative.

Run:  python demos/03_hukuhara_derivative.py
"""

import fuzzyts as f
from fuzzyts.hukuhara import FuzzyTrajectory, delta_h_derivative, verify_derivative_definition

grid = f.AlphaGrid.uniform(11)
ts = f.integer(10)

# A trajectory whose uncertainty grows linearly: u(t) = (t + 1) * triangular.
w = f.make_triangle(-1, 0, 1, grid)
traj = FuzzyTrajectory(ts, [f.vector(f.scale(t + 1.0, w)) for t in ts.points])

# Its derivative is the constant triangular shape at every instant.
d = delta_h_derivative(traj, 4.0)
print("derivative at t=4, support:", d[0].cut(0), " core:", d[0].cut(grid.m - 1))

# The derivative of a crisp trajectory reduces to the scalar quotient.
crisp_traj = FuzzyTrajectory(ts, [f.vector(f.crisp(t * t, grid)) for t in ts.points])
print("crisp t^2 derivative at t=3:", delta_h_derivative(crisp_traj, 3.0)[0].crisp_value())

# Differentiability can fail: if the next state is *less* uncertain in a
# way no fuzzy number can express, the difference does not exist.
flat = f.make_trapezoid(0, 0, 1, 1, grid)
peaky = f.make_triangle(0, 0.5, 1, grid)
broken = FuzzyTrajectory(f.integer(2), [f.vector(peaky), f.vector(flat), f.vector(flat)])
print("derivative where the difference is missing:", delta_h_derivative(broken, 0.0))

# The defining inequalities can be checked directly against any candidate.
print("\ntrue candidate accepted: ",
      verify_derivative_definition(traj, 4.0, d, eps=1e-9))
off = f.add(d, f.vector(f.crisp(1.0, grid)))
print("shifted candidate rejected:",
      not verify_derivative_definition(traj, 4.0, off, eps=0.5))
