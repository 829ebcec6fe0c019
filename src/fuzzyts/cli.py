"""Command-line entry point: simulate, compare, stability, deriv, eval.

Runs are configured by a flat key-value file with sections (see README),
with a handful of flags overriding the common knobs.  Every command writes
its artifacts plus a deterministic meta.json echoing the configuration, so
identical configs and seeds produce byte-identical outputs.

Exit codes: 0 success / all tested properties hold, 1 runtime failure or
witnessed violation, 2 configuration problem (including failed
preconditions and hypothesis gates that prevent testing).
"""

from __future__ import annotations

import argparse
import ast
import configparser
import re
import sys
from pathlib import Path

from . import __version__, catalog, comparison as cmp, fuzzy, hybrid, io, timescale as tsmod
from .comparison import ScalarHybridSystem
from .errors import (
    BlowUpError,
    ConfigError,
    EvalError,
    FuzzyTSError,
    ParseError,
    StepFailureError,
    UnknownPointError,
)
from .fuzzy import AlphaGrid, FuzzyVector
from .hybrid import HybridFuzzySystem, StepMode
from .stability import (
    ClassKPair,
    LyapunovFn,
    SamplingPlan,
    StabilityQuery,
    check_practical_stability,
    verify_comparison_bound,
)
from .timescale import TimeScale

_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$", re.S)

_TS_DEFAULTS = {"integer": (32,)}


def parse_timescale_spec(spec: str) -> TimeScale:
    """Build a time scale from generator syntax such as ``integer(60)``.

    Supported: integer(n), uniform(t0,h,n), qscale(t0,q,n),
    intervals([[a,b],...], resolution), explicit([...]).  A bare name uses
    that generator's default arguments.
    """
    m = _CALL_RE.match(spec)
    if not m:
        raise ConfigError(f"cannot parse time scale spec {spec!r}")
    name, argstr = m.group(1), m.group(2)
    generators = {
        "integer": tsmod.integer,
        "uniform": tsmod.uniform,
        "qscale": tsmod.qscale,
        "intervals": tsmod.intervals,
        "explicit": tsmod.explicit,
    }
    if name not in generators:
        raise ConfigError(f"unknown time scale generator {name!r}")
    if argstr is None or not argstr.strip():
        if name not in _TS_DEFAULTS:
            raise ConfigError(f"time scale generator {name!r} needs arguments")
        args = _TS_DEFAULTS[name]
    else:
        try:
            args = ast.literal_eval(f"({argstr},)")
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"bad arguments in time scale spec {spec!r}: {exc}") from exc
    try:
        return generators[name](*args)
    except (TypeError, FuzzyTSError) as exc:
        raise ConfigError(f"bad time scale spec {spec!r}: {exc}") from exc


class RunConfig:
    """Resolved configuration, kept around verbatim for the metadata echo."""

    __slots__ = ("sections", "out_dir", "alpha_levels", "seed")

    def __init__(self, sections: dict, out_dir: Path, alpha_levels: int, seed: int | None):
        self.sections, self.out_dir, self.alpha_levels, self.seed = (
            sections, out_dir, alpha_levels, seed)

    def echo(self) -> dict:
        return {"config": self.sections,
                "alpha_levels": self.alpha_levels,
                "seed": self.seed}


def load_config(args) -> RunConfig:
    sections: dict[str, dict[str, str]] = {}
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        sections = {name: dict(parser[name]) for name in parser.sections()}

    def override(section: str, key: str, value) -> None:
        if value is not None:
            sections.setdefault(section, {})[key] = str(value)

    override("system", "name", getattr(args, "system", None))
    override("system", "u0", getattr(args, "u0", None))
    override("system", "mode", getattr(args, "mode", None))
    override("system", "horizon", getattr(args, "horizon", None))
    override("timescale", "scale", getattr(args, "timescale", None))
    override("stability", "seed", getattr(args, "seed", None))
    override("output", "alpha_levels", getattr(args, "alpha_levels", None))
    override("output", "dir", getattr(args, "out", None))

    out_dir = Path(sections.get("output", {}).get("dir", "out"))
    try:
        alpha_levels = int(sections.get("output", {}).get("alpha_levels", 11))
    except ValueError as exc:
        raise ConfigError(f"alpha_levels must be an integer: {exc}") from exc
    seed = sections.get("stability", {}).get("seed")
    try:
        seed = int(seed) if seed is not None else None
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer: {seed!r}") from exc
    return RunConfig(sections, out_dir, alpha_levels, seed)


def _get(cfg: RunConfig, section: str, key: str, default=None):
    return cfg.sections.get(section, {}).get(key, default)


def _require(cfg: RunConfig, section: str, key: str) -> str:
    value = _get(cfg, section, key)
    if value is None:
        raise ConfigError(f"missing config value [{section}] {key}")
    return value


def _get_float(cfg: RunConfig, section: str, key: str, default=None):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be a number: {raw!r}") from exc


def _get_int(cfg: RunConfig, section: str, key: str, default=None):
    raw = _get(cfg, section, key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be an integer: {raw!r}") from exc


def parse_u0(src: str, grid: AlphaGrid) -> FuzzyVector:
    """Fuzzy vector from '|'-separated constant fuzzy expressions."""
    from . import dsl  # only DSL input compiles the DSL
    comps = []
    for part in src.split("|"):
        expr = dsl.parse_fuzzy(part, variables=set(), scalar_variables=set())
        comps.append(dsl.compile_expr(expr, grid=grid)())
    return FuzzyVector(tuple(comps))


def _step_mode(name: str) -> StepMode:
    try:
        return StepMode(name)
    except ValueError:
        raise ConfigError(f"unknown step mode {name!r}") from None


def build_bundle(cfg: RunConfig) -> tuple[catalog.SystemBundle, float, StepMode]:
    """System + comparison + Lyapunov data, the horizon, and the step mode."""
    grid = AlphaGrid.uniform(cfg.alpha_levels)
    horizon = _get_float(cfg, "system", "horizon")
    if horizon is None:
        raise ConfigError("missing config value [system] horizon")
    mode = _step_mode(_get(cfg, "system", "mode", "expansive"))
    rho = _get_float(cfg, "system", "rho", 100.0)

    name = _get(cfg, "system", "name")
    if name is not None:
        kwargs = {"rho": rho}
        u0_src = _get(cfg, "system", "u0")
        if u0_src is not None:
            kwargs["u0"] = parse_u0(u0_src, grid)
        r0 = _get_float(cfg, "comparison", "r0")
        if r0 is not None:
            kwargs["r0"] = r0
        gap = _get_int(cfg, "system", "switch_gap")
        if gap is not None and name == "example_3_9":
            kwargs["switch_gap"] = gap
        bundle = catalog.build(name, grid, horizon, **kwargs)
    else:
        bundle = build_dsl_bundle(cfg, grid, horizon, rho)

    try:
        bundle.system.ts.index_of(horizon)
    except UnknownPointError as exc:
        raise ConfigError(f"horizon {horizon} is not a point of the time scale") from exc
    return bundle, horizon, mode


def build_dsl_bundle(cfg: RunConfig, grid: AlphaGrid, horizon: float,
                     rho: float) -> catalog.SystemBundle:
    """Assemble a bundle from DSL expressions in the config."""
    from . import dsl
    ts = parse_timescale_spec(_require(cfg, "timescale", "scale"))
    u0 = parse_u0(_require(cfg, "system", "u0"), grid)
    switch_src = _get(cfg, "system", "switch_times", str(float(ts.points[0])))
    switch_times = tuple(float(x) for x in switch_src.split())

    # Each expression is parsed and compiled once, into a function of its
    # variables' values in the order listed.
    def fuzzy_fn(src: str, variables: tuple[str, ...]):
        expr = dsl.parse_fuzzy(src, variables=set(variables), scalar_variables={"t"})
        return dsl.compile_expr(expr, ("t",), variables, ts, grid)

    def scalar_fn(section: str, key: str, default: str, variables: tuple[str, ...]):
        expr = dsl.parse_scalar(_get(cfg, section, key, default), variables=set(variables))
        return dsl.compile_expr(expr, variables, ts=ts)

    rhs_fn = fuzzy_fn(_require(cfg, "system", "rhs"), ("u", "lam"))
    lam0_fn = fuzzy_fn(_get(cfg, "system", "lambda_0", "crisp(0)"), ("u_k",))
    lamk_fn = fuzzy_fn(_get(cfg, "system", "lambda_k", "u_k"), ("u_k",))

    # Variables bind the whole state (or stack of states) and every operation
    # acts component-wise, so one evaluation serves all components and
    # samples; a result that names no fuzzy variable is a fuzzy number, given
    # to every component (and so to every sample).
    def state(value, u: FuzzyVector) -> FuzzyVector:
        return value if isinstance(value, FuzzyVector) else FuzzyVector((value,) * u.n)

    def rhs(t: float, u: FuzzyVector, lam: FuzzyVector) -> FuzzyVector:
        return state(rhs_fn(t, u, lam), u)

    def make_switch_map(fn):
        def switch_map(t_k: float, u_k: FuzzyVector) -> FuzzyVector:
            return state(fn(t_k, u_k), u_k)
        return switch_map

    maps = (make_switch_map(lam0_fn),) + tuple(
        make_switch_map(lamk_fn) for _ in switch_times[1:])
    system = HybridFuzzySystem(ts, switch_times, rhs, maps, rho, u0)

    g = scalar_fn("comparison", "g", "0", ("t", "r", "v"))
    psi = scalar_fn("comparison", "psi", "v", ("v",))
    V_fn = scalar_fn("lyapunov", "v", "d", ("t", "d"))
    kpair = ClassKPair(a=scalar_fn("lyapunov", "a", "x", ("x",)),
                       b=scalar_fn("lyapunov", "b", "x", ("x",)))

    def V(t: float, u: FuzzyVector) -> float:
        return V_fn(t, fuzzy.norm(u))

    r0 = _get_float(cfg, "comparison", "r0")
    lyap = LyapunovFn(V)
    if r0 is None:
        r0 = lyap(float(ts.points[0]), u0)
    comp_sys = ScalarHybridSystem(ts, switch_times, g,
                                  tuple(psi for _ in switch_times), r0)
    return catalog.SystemBundle("dsl", system, comp_sys, lyap, kpair)


def build_query(cfg: RunConfig, rho: float) -> StabilityQuery:
    lam = _get_float(cfg, "stability", "lambda")
    big_a = _get_float(cfg, "stability", "a")
    if lam is None or big_a is None:
        raise ConfigError("stability checks need [stability] lambda and A")
    plan = SamplingPlan(
        count=_get_int(cfg, "stability", "samples", 200),
        seed=cfg.seed if cfg.seed is not None else 0,
        family=_get(cfg, "stability", "shape", "triangular"),
    )
    return StabilityQuery(
        lam=lam, A=big_a,
        B=_get_float(cfg, "stability", "b"),
        T0=_get_float(cfg, "stability", "t0"),
        rho=rho, sampling=plan,
    )


def _write_meta(cfg: RunConfig, out: Path, command: str, outputs: list[str],
                extra: dict | None = None) -> None:
    payload = {
        "schema_version": io.SCHEMA_VERSION,
        "tool": "fuzzyts",
        "version": __version__,
        "command": command,
        "outputs": sorted(outputs),
        **cfg.echo(),
    }
    if extra:
        payload.update(extra)
    io.write_json(out / "meta.json", payload)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args)
    bundle, horizon, mode = build_bundle(cfg)
    traj = hybrid.solve(bundle.system, mode=mode, horizon=horizon)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    io.write_trajectory_csv(out / "trajectory.csv", traj)
    _write_meta(cfg, out, "simulate", ["trajectory.csv"],
                {"mode": mode.value, "horizon": horizon, "system": bundle.name})
    print(f"simulated {bundle.name} to t={horizon} ({len(traj)} points) -> {out}")
    return 0


def cmd_deriv(args) -> int:
    cfg = load_config(args)
    bundle, horizon, mode = build_bundle(cfg)
    traj = hybrid.solve(bundle.system, mode=mode, horizon=horizon)
    from .hukuhara import delta_h_derivative
    entries = []
    for i in range(len(traj) - 1):
        t = float(traj.ts.points[i])
        entries.append((t, delta_h_derivative(traj, t)))
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    io.write_derivative_csv(out / "derivative.csv", entries)
    _write_meta(cfg, out, "deriv", ["derivative.csv"],
                {"mode": mode.value, "horizon": horizon, "system": bundle.name})
    print(f"derivative table for {bundle.name} -> {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args)
    bundle, horizon, mode = build_bundle(cfg)
    V = bundle.lyapunov
    t0 = float(bundle.system.ts.points[0])
    v0 = V(t0, bundle.system.u0)
    if v0 > bundle.comparison.r0 + 1e-9:
        print(f"hypothesis gate failed: V(t0, u0) = {v0} exceeds r0 = "
              f"{bundle.comparison.r0}; comparison bound not applicable",
              file=sys.stderr)
        return 2
    traj = hybrid.solve(bundle.system, mode=mode, horizon=horizon)
    scalar = cmp.solve_comparison(bundle.comparison, horizon=horizon)
    report = verify_comparison_bound(V, traj, scalar, tol=1e-9)
    times = [float(t) for t in traj.times]
    v_values = [V(t, u) for t, u in zip(times, traj.values)]
    r_values = [scalar.value_at(t) for t in times]
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    io.write_comparison_csv(out / "comparison.csv", times, v_values, r_values)
    io.write_scalar_csv(out / "scalar.csv", scalar)
    io.write_trajectory_csv(out / "trajectory.csv", traj)
    _write_meta(cfg, out, "compare", ["comparison.csv", "scalar.csv", "trajectory.csv"],
                {"mode": mode.value, "horizon": horizon, "system": bundle.name,
                 "bound_holds": report.holds, "violations": len(report.violations)})
    print(f"comparison bound on {bundle.name}: "
          f"{'holds' if report.holds else f'{len(report.violations)} violations'} "
          f"over {report.checked_points} points -> {out}")
    return 0 if report.holds else 1


def cmd_stability(args) -> int:
    cfg = load_config(args)
    bundle, horizon, _ = build_bundle(cfg)
    query = build_query(cfg, rho=bundle.system.rho)
    modes_key = _get(cfg, "stability", "modes", _get(cfg, "system", "mode", "both"))
    if modes_key == "both":
        modes = (StepMode.EXPANSIVE, StepMode.CONTRACTIVE)
    else:
        modes = (_step_mode(modes_key),)
    verdict = check_practical_stability(
        bundle.system, bundle.comparison, bundle.lyapunov, bundle.kpair,
        query, horizon, modes=modes)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    io.write_json(out / "verdict.json", verdict.to_dict())
    _write_meta(cfg, out, "stability", ["verdict.json"],
                {"horizon": horizon, "system": bundle.name})
    for prop, outcome in verdict.properties.items():
        line = f"{prop}: {outcome['status']}"
        if outcome["witness"] is not None:
            w = outcome["witness"]
            line += f" (witness t={w['t']}, value={w['value']}, bound={w['bound']})"
        print(line)
    if verdict.consistency["inconsistent"]:
        print("INCONSISTENCY: hypotheses and comparison passed but a direct "
              "violation was witnessed", file=sys.stderr)
    return verdict.exit_code()


def cmd_eval(args) -> int:
    from . import dsl
    scalars = {}
    for name in ("t", "r", "v", "d", "x"):
        value = getattr(args, name, None)
        if value is not None:
            scalars[name] = value
    ts = parse_timescale_spec(args.timescale) if args.timescale else None
    grid = AlphaGrid.uniform(args.alpha_levels or 11)
    expr = dsl.parse_fuzzy(args.expr) if args.fuzzy else dsl.parse_scalar(args.expr)
    result = dsl.compile_expr(expr, tuple(scalars), (), ts, grid)(*scalars.values())
    if args.fuzzy:
        for alpha, lo, hi in result.to_records():
            print(f"alpha={alpha:g} [{lo:.17g}, {hi:.17g}]")
    else:
        print(f"{result:.17g}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fuzzyts",
        description="simulate hybrid fuzzy dynamics on time scales and "
                    "check practical stability")
    sub = parser.add_subparsers(dest="cmd", required=True)

    # the flags every state command shares, built once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a run configuration file")
    common.add_argument("--out", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="master seed for sampling")
    common.add_argument("--alpha-levels", type=int, dest="alpha_levels",
                        help="number of alpha levels (default 11)")
    common.add_argument("--mode", choices=["expansive", "contractive"],
                        help="solver step mode")
    common.add_argument("--horizon", type=float, help="final time (a stored point)")
    common.add_argument("--system", help="catalog system name")
    common.add_argument("--u0", help="initial state as a fuzzy expression")
    common.add_argument("--timescale", help="time scale spec, e.g. integer(60)")

    for name, fn, aliases in (("simulate", cmd_simulate, []),
                              ("compare", cmd_compare, []),
                              ("stability", cmd_stability, []),
                              ("deriv", cmd_deriv, ["dini"])):
        sub.add_parser(name, aliases=aliases, parents=[common]).set_defaults(func=fn)

    p = sub.add_parser("eval", help="evaluate one expression and print the value")
    p.add_argument("expr")
    p.add_argument("--fuzzy", action="store_true", help="use the fuzzy grammar")
    p.add_argument("--timescale", help="time scale spec for mu/sigma/eta")
    p.add_argument("--alpha-levels", type=int, dest="alpha_levels")
    for var in ("t", "r", "v", "d", "x"):
        p.add_argument(f"--{var}", type=float)
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParseError, EvalError, UnknownPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StepFailureError as exc:
        print(f"solver step failed at t={exc.t}: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"comparison dynamics blew up at t={exc.t}: {exc}", file=sys.stderr)
        return 1
    except FuzzyTSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
