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

A stack of initial states (a ``(S, n, m)`` fuzzy vector) is stepped as one
stack through the same loop, which gives each sample exactly the solution
it has on its own.  When a step fails for some samples, they leave with
their own errors and the step is re-run on the others, still as one stack;
only a step that rejects the stack as a whole is run sample by sample.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from . import fuzzy, timescale as tsmod
from .errors import GHDifferenceError, InvalidShapeError, Record, StepFailureError
from .fuzzy import AlphaGrid, FuzzyVector
# delta_h_derivative is unused here but stays importable from this module:
# perfbench/tracer.py wraps fuzzyts.hybrid.delta_h_derivative by name.
from .hukuhara import FuzzyTrajectory, delta_h_derivative  # noqa: F401
from .timescale import SwitchSchedule, TimeScale

# The right-hand side and the switch maps may be given a stack of states
# (and of held values) and must then act sample by sample, as any
# composition of the fuzzy kernels does: a kernel that fails names the
# failing samples, which leave, and the solver calls the function again on
# the others.  A result that is the same for every sample may be a single
# state.  One that cannot take a stack (say, it indexes components) raises
# InvalidShapeError there, naming no samples, and the solver then calls it
# once per sample for that step (a switch map, for its segment's first step).
RhsFn = Callable[[float, FuzzyVector, FuzzyVector], FuzzyVector]
SwitchMap = Callable[[float, FuzzyVector], FuzzyVector]

_STEP_ERRORS = (InvalidShapeError, GHDifferenceError)


class StepMode(enum.Enum):
    """Which branch of the derivative quotient the solver inverts."""

    EXPANSIVE = "expansive"
    CONTRACTIVE = "contractive"


class HybridFuzzySystem(Record):
    """Fuzzy dynamics with piecewise-frozen switch values.

    ``switch_times`` must be stored points starting at the first point of
    the scale; ``switch_maps[k]`` produces the value held on the segment
    [t_k, t_{k+1}].  The initial state must lie inside the validity ball
    of radius ``rho`` around the crisp zero; ``u0`` may be a stack of
    initial states, each of which must.  ``rhs`` and ``switch_maps`` then
    receive stacks (see ``RhsFn``).
    """

    _fields = ("ts", "switch_times", "rhs", "switch_maps", "rho", "u0")
    __slots__ = _fields + ("schedule",)

    def __init__(self, ts: TimeScale, switch_times: tuple[float, ...], rhs: RhsFn,
                 switch_maps: tuple[SwitchMap, ...], rho: float, u0: FuzzyVector):
        self.schedule = SwitchSchedule(ts, switch_times)
        if len(switch_maps) != len(self.schedule.times):
            raise InvalidShapeError("need exactly one switch map per switch time")
        if rho <= 0:
            raise InvalidShapeError("rho must be positive")
        if np.any(fuzzy.norm(u0) >= rho):
            raise InvalidShapeError("initial state lies outside the validity ball")
        self.ts, self.rhs, self.rho, self.u0 = ts, rhs, rho, u0
        self.switch_times, self.switch_maps = self.schedule.times, tuple(switch_maps)


def _contractive_step(u: FuzzyVector, w: FuzzyVector) -> FuzzyVector:
    # Solve u = next + (-1)*w for next.
    return fuzzy.h_difference(u, fuzzy.scale(-1.0, w))


def solve(sys: HybridFuzzySystem, mode: StepMode = StepMode.EXPANSIVE,
          horizon: float | None = None) -> FuzzyTrajectory:
    """Integrate the system forward to the horizon (a stored point).

    Returns a trajectory carrying the segment index of every point.
    Raises StepFailureError when a contractive step has no valid state or
    the right-hand side or a switch map produces an invalid value.

    A stacked ``u0`` is stepped as one stack.  When a stacked step fails,
    the failing kernel's error names the failed samples, each with the error
    its own step raises (see ``fuzzy``): they leave the stack, their
    StepFailureErrors kept in the trajectory's ``failures`` under their rows
    of ``u0``, and the step is re-run on the others as one stack.  A step
    whose error names no samples is re-run for each sample on its own.  The
    trajectory holds the stacks of the rows that reach the horizon (its
    ``rows``), each row equal to the solution of that sample on its own.
    """
    step = fuzzy.add if mode is StepMode.EXPANSIVE else _contractive_step

    def failed(t: float, exc: Exception) -> StepFailureError:
        failure = StepFailureError(t, f"{mode.value} step failed at t={t}: {exc}")
        failure.__cause__ = exc
        return failure

    def freeze(k: int, u: FuzzyVector) -> FuzzyVector:
        try:
            return sys.switch_maps[k](sys.switch_times[k], u)
        except _STEP_ERRORS as exc:
            raise failed(sys.switch_times[k], exc) from exc

    def advance(t: float, mu: float, u: FuzzyVector, lam: FuzzyVector):
        try:
            return step(u, fuzzy.scale(mu, sys.rhs(t, u, lam))), lam
        except _STEP_ERRORS as exc:
            raise failed(t, exc) from exc

    if sys.u0.samples is None:
        values, segments = sys.schedule.march(sys.u0, horizon, freeze, advance)
        return FuzzyTrajectory(sys.ts, values, segments=segments.tolist())

    live = [np.arange(sys.u0.samples)]  # rows of u0 in the stack at each point
    failures: dict[int, StepFailureError] = {}

    def freeze_stack(k: int, u: FuzzyVector):
        # frozen by the segment's first step on the samples that take it, so
        # that a sample whose switch map fails leaves there as on a failed step
        return lambda stack: freeze(k, stack)

    def advance_stack(t: float, mu: float, u: FuzzyVector, lam):
        rows = live[-1]
        while u.samples:  # an emptied stack idles
            try:
                u, lam = advance(t, mu, u, lam(u) if callable(lam) else lam)
                break
            except StepFailureError as exc:
                errors = getattr(exc.__cause__, "rows", None)
            if not errors or max(errors) >= u.samples:  # the stack was rejected as a whole
                return advance_each(t, mu, u, lam, rows)
            for j, error in errors.items():  # these samples leave; the others step again
                failures[int(rows[j])] = failed(t, error)
            kept = [j for j in range(u.samples) if j not in errors]
            rows, u = rows[kept], u.take(kept)
            lam = lam if callable(lam) or lam.samples is None else lam.take(kept)
        live.append(rows)
        return u, lam

    def advance_each(t: float, mu: float, u: FuzzyVector, lam, rows):
        # the same step, and a pending freeze, for each sample on its own;
        # failed samples leave
        held = [lam] * u.samples if callable(lam) or lam.samples is None else lam.unstack()
        kept, states, holds = [], [], []
        for j, (row, h) in enumerate(zip(u.unstack(), held)):
            try:
                h = h(row) if callable(h) else h
                states.append(advance(t, mu, row, h)[0])
                kept.append(j)
                holds.append(h)
            except StepFailureError as exc:
                failures[int(rows[j])] = exc
        live.append(rows[kept])
        if holds and (callable(lam) or lam.samples is not None):  # held per sample
            lam = FuzzyVector.stack(holds)
        return (FuzzyVector.stack(states) if states else u.take(kept)), lam

    values, segments = sys.schedule.march(sys.u0, horizon, freeze_stack, advance_stack)
    rows = live[-1]
    if failures:  # keep the rows that reached the horizon
        values = [v if r is rows else v.take(np.searchsorted(r, rows))
                  for v, r in zip(values, live)]
    return FuzzyTrajectory(sys.ts, values, segments=segments.tolist(),
                           rows=rows, failures=failures)


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
        return fuzzy.add(fuzzy.scale(-eta, u), fuzzy.scale(eta, lam))

    def hold_zero(t_k: float, u_k: FuzzyVector) -> FuzzyVector:
        return fuzzy.zero_vector(u_k.grid, u_k.n)

    def reinject(t_k: float, u_k: FuzzyVector) -> FuzzyVector:
        return u_k

    maps: tuple[SwitchMap, ...] = (hold_zero,) + (reinject,) * n_switches
    return HybridFuzzySystem(ts, switch_times, rhs, maps, rho, u0)
