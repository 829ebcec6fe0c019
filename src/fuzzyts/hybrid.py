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
a step that rejects the stack as a whole fails the solve.
"""

from __future__ import annotations

import enum
from typing import Callable, Iterator

import numpy as np

from . import fuzzy, timescale as tsmod
from .errors import GHDifferenceError, InvalidShapeError, Record, StepFailureError
from .fuzzy import AlphaGrid, FuzzyVector
# delta_h_derivative is unused here but stays importable from this module:
# perfbench/tracer.py wraps fuzzyts.hybrid.delta_h_derivative by name.
from .hukuhara import FuzzyTrajectory, delta_h_derivative  # noqa: F401
from .timescale import SwitchSchedule, TimeScale

# The right-hand side and the switch maps must take a stack of states (and
# of held values) and act on it sample by sample, as any composition of the
# fuzzy kernels does: a kernel that fails names the failing samples, which
# leave, and the solver calls the function again on the others.  A result
# that is the same for every sample may be a single state.  One that rejects
# the stack as a whole (say, it indexes components) makes ``solve`` raise.
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


def _steps(sys: HybridFuzzySystem, mode: StepMode):
    """``failed(t, exc)``, which makes a StepFailureError, and the march's
    ``freeze`` and ``advance`` for ``mode``."""
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

    return failed, freeze, advance


def states(sys: HybridFuzzySystem, mode: StepMode = StepMode.EXPANSIVE,
           horizon: float | None = None) -> Iterator[tuple[float, int, FuzzyVector]]:
    """``(t, segment, state)`` per point up to the horizon, as ``solve`` finds
    them, each step taken only when its point is asked for.  A stacked ``u0``
    is stepped as one stack: a step that fails for any sample raises."""
    _, freeze, advance = _steps(sys, mode)
    march = sys.schedule.march(sys.u0, horizon, freeze, advance)
    return ((t, k, u) for t, (k, u) in zip(memoryview(sys.ts.points), march))


def stacked_states(sys: HybridFuzzySystem, mode: StepMode, horizon: float | None,
                   failures: dict[int, StepFailureError]) -> Iterator[tuple]:
    """``(t, segment, rows, stack)`` per point of a stacked ``u0`` up to the
    horizon, each step taken only when its point is asked for; ``rows`` are
    the rows of ``u0`` in the stack there.  A failed step's kernel error names
    the failed samples, each with its own step's error (see ``fuzzy``): they
    leave, their StepFailureErrors put in ``failures`` under their rows of
    ``u0`` as they fail, and the step is re-run on the others as one stack.
    A step whose error names no samples of the stack raises."""
    failed, freeze, advance = _steps(sys, mode)
    rows = np.arange(sys.u0.samples)

    def freeze_stack(k: int, u: FuzzyVector):
        # frozen by the segment's first step on the samples that take it, so
        # that a sample whose switch map fails leaves there as on a failed step
        return lambda stack: freeze(k, stack)

    def advance_stack(t: float, mu: float, u: FuzzyVector, lam):
        nonlocal rows
        while u.samples:  # an emptied stack idles
            try:
                return advance(t, mu, u, lam(u) if callable(lam) else lam)
            except StepFailureError as exc:
                errors = getattr(exc.__cause__, "rows", None)
                if not errors or max(errors) >= u.samples:  # the stack was rejected as a whole
                    raise
            for j, error in errors.items():  # these samples leave; the others step again
                failures[int(rows[j])] = failed(t, error)
            kept = [j for j in range(u.samples) if j not in errors]
            rows, u = rows[kept], u.take(kept)
            lam = lam if callable(lam) or lam.samples is None else lam.take(kept)
        return u, lam

    march = sys.schedule.march(sys.u0, horizon, freeze_stack, advance_stack)
    return ((t, k, rows, u) for t, (k, u) in zip(memoryview(sys.ts.points), march))


def solve(sys: HybridFuzzySystem, mode: StepMode = StepMode.EXPANSIVE,
          horizon: float | None = None, read: Callable | None = None,
          failures: dict[int, StepFailureError] | None = None) -> FuzzyTrajectory | list:
    """Integrate the system forward to the horizon (a stored point).

    For one initial state, returns a trajectory carrying the segment index
    of every point.
    Raises StepFailureError when a contractive step has no valid state or
    the right-hand side or a switch map produces an invalid value.

    A stacked ``u0`` is marched by ``stacked_states``, which puts each failed
    row's StepFailureError in ``failures``, and no stack is kept: each point's
    stack goes to ``read(t, stack)`` as it is made, and the solve returns
    ``(rows, what read returned)`` per point while a row is live.
    """
    if sys.u0.samples is None:
        _, segments, values = zip(*states(sys, mode, horizon))
        return FuzzyTrajectory(sys.ts, list(values), segments=list(segments))
    if read is None or failures is None:
        raise TypeError("a stacked u0 needs read and failures")
    march = stacked_states(sys, mode, horizon, failures)
    return [(rows, read(t, u)) for t, _, rows, u in march if rows.size]


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


class SystemBundle:
    """A named system with the ``ScalarHybridSystem``, ``LyapunovFn`` and
    ``ClassKPair`` that compare and stability check it with, which
    ``analysis()`` returns, called once, when one of them is first read."""

    __slots__ = ("name", "system", "_analysis", "_built")

    def __init__(self, name: str, system: HybridFuzzySystem, analysis: Callable[[], tuple]):
        self.name, self.system, self._analysis, self._built = name, system, analysis, ()

    def _read(self, i: int):
        if not self._built:
            self._built = self._analysis()
        return self._built[i]

    comparison = property(lambda self: self._read(0))
    lyapunov = property(lambda self: self._read(1))
    kpair = property(lambda self: self._read(2))
