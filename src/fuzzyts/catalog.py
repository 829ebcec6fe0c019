"""Built-in system bundles wired for the solver, comparison, and checker.

Each entry packs a hybrid fuzzy system together with its scalar companion,
a Lyapunov function, and class-K bounds (the last three built when first
read), so configs can reference one name instead of spelling out every
expression.
"""

from __future__ import annotations

from . import fuzzy, timescale as tsmod
from .errors import ConfigError
from .fuzzy import AlphaGrid, FuzzyVector
from .hybrid import HybridFuzzySystem, SystemBundle, build_example_system


def _identity(x):
    return x


def _bundle(name: str, system: HybridFuzzySystem, g, r0: float | None) -> SystemBundle:
    """The named bundle, checked with the comparison system of ``g`` with
    identity psi maps, the norm as Lyapunov function and identity class-K
    bounds (see ``stability.build_analysis``)."""
    def analysis():
        from .stability import build_analysis, norm_lyapunov  # only compare and stability read it
        return build_analysis(system, g, _identity, norm_lyapunov(), _identity, _identity, r0)
    return SystemBundle(name, system, analysis)


def make_example_3_9(grid: AlphaGrid, horizon: float, switch_gap: int = 5,
                     u0: FuzzyVector | None = None, rho: float = 100.0,
                     r0: float | None = None) -> SystemBundle:
    """Switched relaxation dynamics with re-injected switch states.

    Companion scalar dynamics: g(t, w, w_k) = (w + w_k) / (1 + mu(t)).
    """
    n_switches = max(1, -(-int(horizon) // switch_gap))  # ceil division
    system = build_example_system(grid, n_switches, switch_gap, u0=u0, rho=rho)
    ts = system.ts

    def g(t: float, w: float, w_k: float) -> float:
        return (w + w_k) / (1.0 + ts.mu(t))

    return _bundle("example_3_9", system, g, r0)


def make_crisp_contraction(grid: AlphaGrid, horizon: float,
                           u0: FuzzyVector | None = None, rho: float = 100.0,
                           r0: float | None = None) -> SystemBundle:
    """Plain contraction on the integers: the state halves every step.

    One segment; the switch value is the crisp zero and never enters the
    dynamics.  Companion dynamics g(t, w, w_k) = -w / (1 + mu(t)).
    """
    ts = tsmod.integer(max(1, int(horizon)))
    if u0 is None:
        u0 = FuzzyVector((fuzzy.crisp(0.5, grid),))

    def rhs(t: float, u: FuzzyVector, lam: FuzzyVector) -> FuzzyVector:
        return fuzzy.scale(-1.0 / (1.0 + ts.mu(t)), u)

    def hold_zero(t_k: float, u_k: FuzzyVector) -> FuzzyVector:
        return fuzzy.zero_vector(u_k.grid, u_k.n)

    system = HybridFuzzySystem(ts, (float(ts.points[0]),), rhs, (hold_zero,), rho, u0)

    def g(t: float, w: float, w_k: float) -> float:
        return -w / (1.0 + ts.mu(t))

    return _bundle("crisp_contraction", system, g, r0)


BUILDERS = {
    "example_3_9": make_example_3_9,
    "crisp_contraction": make_crisp_contraction,
}


def build(name: str, grid: AlphaGrid, horizon: float, **kwargs) -> SystemBundle:
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown catalog system {name!r}; available: {sorted(BUILDERS)}"
        ) from None
    return builder(grid, horizon, **kwargs)
