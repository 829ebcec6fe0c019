"""Hukuhara delta derivatives of fuzzy trajectories on time scales.

Differentiability can genuinely fail here (the Hukuhara difference of two
states need not exist), and the hybrid solver branches on that, so
non-existence is reported as a ``None`` return rather than an exception.
"""

from __future__ import annotations

import numpy as np

from . import fuzzy
from .errors import (
    GHDifferenceError,
    NoSuccessorError,
    Record,
    StepFailureError,
    VerificationInconclusive,
)
from .fuzzy import FuzzyVector
from .timescale import TimeScale

# Relative tolerance for the forward/backward quotient agreement required
# at right-dense points.
DENSE_AGREEMENT_TOL = 1e-6


class FuzzyTrajectory(Record):
    """Fuzzy states attached to the leading points of a time scale.

    ``values[i]`` is the state at ``ts.points[i]``; a trajectory may stop
    before the end of the scale (solvers fill it up to their horizon).
    ``segments`` is attached by the hybrid solver.

    A solution from a stack of initial states holds stacks: ``rows`` names
    the rows of that initial stack that reached the horizon, and
    ``failures`` (by default a fresh empty dict) maps every other row to
    the StepFailureError it stopped at.
    """

    __slots__ = _fields = ("ts", "values", "segments", "rows", "failures")

    def __init__(self, ts: TimeScale, values: list[FuzzyVector],
                 segments: list[int] | None = None, rows: np.ndarray | None = None,
                 failures: dict[int, StepFailureError] | None = None):
        if not values:
            raise ValueError("trajectory needs at least one value")
        if len(values) > len(ts):
            raise ValueError("more values than time points")
        first = values[0]
        for v in values[1:]:
            if v.n != first.n or not v.grid.matches(first.grid):
                raise ValueError("trajectory values must share grid and dimension")
        self.ts, self.values, self.segments, self.rows = ts, values, segments, rows
        self.failures = {} if failures is None else failures

    def __len__(self) -> int:
        return len(self.values)

    @property
    def times(self):
        return self.ts.points[: len(self.values)]

    @property
    def horizon(self) -> float:
        return float(self.ts.points[len(self.values) - 1])

    def value_at(self, t: float) -> FuzzyVector:
        i = self.ts.index_of(t)
        if i >= len(self.values):
            raise NoSuccessorError(f"trajectory is not defined at t={t}")
        return self.values[i]


def _quotient(a: FuzzyVector, b: FuzzyVector, h: float) -> FuzzyVector | None:
    """(a (-)gH b) / h component-wise, or None when a difference is missing."""
    try:
        diff = fuzzy.gh_difference(a, b)
    except GHDifferenceError:
        return None
    return fuzzy.scale(1.0 / h, diff)


def delta_h_derivative(traj: FuzzyTrajectory, t: float) -> FuzzyVector | None:
    """Hukuhara delta derivative of the trajectory at a stored point.

    At a right-scattered point this is the exact quotient
    ``[u(sigma(t)) (-)gH u(t)] / mu(t)``.  At a right-dense point the
    forward and backward quotients at the sampled spacing must both exist
    and agree within ``DENSE_AGREEMENT_TOL * (1 + magnitude)``; the forward
    quotient is returned.  Returns None when the function is not
    differentiable in this sense at ``t``.
    """
    ts = traj.ts
    i = ts.index_of(t)
    if i >= len(traj.values) - 1:
        raise NoSuccessorError(f"no successor value at t={t}")
    t0 = float(ts.points[i])
    t1 = float(ts.points[i + 1])
    forward = _quotient(traj.values[i + 1], traj.values[i], t1 - t0)
    if forward is None:
        return None
    if not ts.is_right_dense(t0) or i == 0:
        return forward
    tm = float(ts.points[i - 1])
    backward = _quotient(traj.values[i], traj.values[i - 1], t0 - tm)
    if backward is None:
        return None
    gap = fuzzy.dist(forward, backward)
    magnitude = max(fuzzy.norm(forward), fuzzy.norm(backward))
    if gap > DENSE_AGREEMENT_TOL * (1.0 + magnitude):
        return None
    return forward


def verify_derivative_definition(traj: FuzzyTrajectory, t: float,
                                 candidate: FuzzyVector, eps: float,
                                 window: int = 8) -> bool:
    """Check the defining inequalities of the Hukuhara delta derivative.

    Samples every stored point within ``window`` steps of ``t`` and checks,
    with the given eps, the forward family

        d[u(t+h) (-)gH u(sigma(t)), candidate*(h - mu)] <= eps*(h - mu)

    and the backward family

        d[u(sigma(t)) (-)gH u(t-h), candidate*(mu + h)] <= eps*(mu + h).

    Raises VerificationInconclusive when a required Hukuhara difference
    does not exist.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    ts = traj.ts
    i = ts.index_of(t)
    if i >= len(traj.values) - 1:
        raise NoSuccessorError(f"no successor value at t={t}")
    t0 = float(ts.points[i])
    mu = float(ts.points[i + 1]) - t0
    u_sigma = traj.values[i + 1]

    def gh(a: FuzzyVector, b: FuzzyVector) -> FuzzyVector:
        try:
            return fuzzy.gh_difference(a, b)
        except GHDifferenceError as exc:
            raise VerificationInconclusive(
                f"needed Hukuhara difference missing near t={t}"
            ) from exc

    # Forward family: stored points at or beyond sigma(t).
    for j in range(i + 1, min(i + 1 + window, len(traj.values))):
        h = float(ts.points[j]) - t0
        lhs = fuzzy.dist(gh(traj.values[j], u_sigma), fuzzy.scale(h - mu, candidate))
        if lhs > eps * (h - mu) + fuzzy.ATOL:
            return False
    # Backward family: stored points at or before t (h = 0 included).
    for j in range(i, max(i - window, -1), -1):
        h = t0 - float(ts.points[j])
        lhs = fuzzy.dist(gh(u_sigma, traj.values[j]), fuzzy.scale(mu + h, candidate))
        if lhs > eps * (mu + h) + fuzzy.ATOL:
            return False
    return True
