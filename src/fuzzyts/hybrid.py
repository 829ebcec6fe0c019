"""Hybrid fuzzy dynamic systems and their Hukuhara-Euler solver.

The state obeys a fuzzy dynamic equation whose right-hand side depends on
a switch value that is frozen at each switching instant: on the segment
starting at t_k the solver evaluates ``switch_maps[k](t_k, u(t_k))`` once
and holds it constant.  Stepping inverts the scattered-point derivative
quotient, which has two branches:

  * expansive:   u(sigma(t)) = u(t) + mu(t) * f(t, u(t), lam_k)
  * contractive: u(sigma(t)) solves u(t) = u(sigma(t)) + (-mu(t)) * f(...),
    i.e. a classical Hukuhara difference that may fail to exist.

On isolated scales the expansive recursion is exact for the derivative it
induces (the Hukuhara delta derivative of the trajectory reproduces the
frozen right-hand side up to rounding); dense segments inherit the
sampling resolution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from . import fuzzy, timescale as tsmod
from .errors import GHDifferenceError, InvalidShapeError, StepFailureError
from .fuzzy import AlphaGrid, FuzzyNumber, FuzzyVector
# delta_h_derivative is unused here but stays importable from this module:
# perfbench/tracer.py wraps fuzzyts.hybrid.delta_h_derivative by name.
from .hukuhara import FuzzyTrajectory, delta_h_derivative  # noqa: F401
from .timescale import SwitchSchedule, TimeScale

RhsFn = Callable[[float, FuzzyVector, FuzzyVector], FuzzyVector]
SwitchMap = Callable[[float, FuzzyVector], FuzzyVector]


class StepMode(enum.Enum):
    """Which branch of the derivative quotient the solver inverts."""

    EXPANSIVE = "expansive"
    CONTRACTIVE = "contractive"


@dataclass(eq=False)
class HybridFuzzySystem:
    """Fuzzy dynamics with piecewise-frozen switch values.

    ``switch_times`` must be stored points starting at the first point of
    the scale; ``switch_maps[k]`` produces the value held on the segment
    [t_k, t_{k+1}].  The initial state must lie inside the validity ball
    of radius ``rho`` around the crisp zero.
    """

    ts: TimeScale
    switch_times: tuple[float, ...]
    rhs: RhsFn
    switch_maps: tuple[SwitchMap, ...]
    rho: float
    u0: FuzzyVector
    schedule: SwitchSchedule = field(init=False, repr=False)

    def __post_init__(self):
        self.schedule = SwitchSchedule(self.ts, self.switch_times)
        if len(self.switch_maps) != len(self.schedule.times):
            raise InvalidShapeError("need exactly one switch map per switch time")
        if self.rho <= 0:
            raise InvalidShapeError("rho must be positive")
        if fuzzy.norm(self.u0) >= self.rho:
            raise InvalidShapeError("initial state lies outside the validity ball")
        self.switch_times = self.schedule.times
        self.switch_maps = tuple(self.switch_maps)


def _expansive_step(u: FuzzyNumber, w: FuzzyNumber) -> FuzzyNumber:
    return fuzzy.add(u, w)


def _contractive_step(u: FuzzyNumber, w: FuzzyNumber) -> FuzzyNumber:
    # Solve u = next + (-1)*w for next: endpoints subtract pairwise.
    neg = fuzzy.scale(-1.0, w)
    return FuzzyNumber(u.grid, u.lower - neg.lower, u.upper - neg.upper)


def solve(sys: HybridFuzzySystem, mode: StepMode = StepMode.EXPANSIVE,
          horizon: float | None = None) -> FuzzyTrajectory:
    """Integrate the system forward to the horizon (a stored point).

    Returns a trajectory carrying the segment index of every point.
    Raises StepFailureError when a contractive step has no valid state or
    the right-hand side produces an invalid value.
    """
    step = _expansive_step if mode is StepMode.EXPANSIVE else _contractive_step

    def freeze(k: int, u: FuzzyVector) -> FuzzyVector:
        return sys.switch_maps[k](sys.switch_times[k], u)

    def advance(t: float, mu: float, u: FuzzyVector, lam: FuzzyVector) -> FuzzyVector:
        try:
            contribution = fuzzy.vec_scale(mu, sys.rhs(t, u, lam))
            return FuzzyVector(tuple(step(uc, wc) for uc, wc in zip(u, contribution)))
        except (InvalidShapeError, GHDifferenceError) as exc:
            raise StepFailureError(t, f"{mode.value} step failed at t={t}: {exc}") from exc

    values, segments = sys.schedule.march(sys.u0, horizon, freeze, advance)
    return FuzzyTrajectory(sys.ts, values, segments=segments.tolist())


def build_example_system(grid: AlphaGrid, n_switches: int, switch_gap: int,
                         u0: FuzzyVector | None = None,
                         rho: float = 100.0) -> HybridFuzzySystem:
    """Catalog system: switched relaxation dynamics on the integer scale.

    The right-hand side is ``(-1/(1+mu)) * u  (+)  (1/(1+mu)) * lam`` with
    switch instants every ``switch_gap`` integers.  The first segment holds
    the crisp zero; later segments re-inject the state observed at their
    switch instant.  On the integers (mu = 1) the first segment behaves as
    u(t+1) = u(t) + (-1/2) u(t).
    """
    if n_switches < 1 or switch_gap < 1:
        raise InvalidShapeError("need n_switches >= 1 and switch_gap >= 1")
    ts = tsmod.integer((n_switches + 1) * switch_gap)
    if u0 is None:
        u0 = FuzzyVector((fuzzy.make_triangle(-1.0, 0.0, 1.0, grid),))
    switch_times = tuple(float(k * switch_gap) for k in range(n_switches + 1))

    def rhs(t: float, u: FuzzyVector, lam: FuzzyVector) -> FuzzyVector:
        eta = 1.0 / (1.0 + ts.mu(t))
        return fuzzy.vec_add(fuzzy.vec_scale(-eta, u), fuzzy.vec_scale(eta, lam))

    def hold_zero(t_k: float, u_k: FuzzyVector) -> FuzzyVector:
        return fuzzy.zero_vector(u_k.grid, u_k.n)

    def reinject(t_k: float, u_k: FuzzyVector) -> FuzzyVector:
        return u_k

    maps: tuple[SwitchMap, ...] = (hold_zero,) + (reinject,) * n_switches
    return HybridFuzzySystem(ts, switch_times, rhs, maps, rho, u0)
