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

import ast
import itertools
import math
import re
import sys
from pathlib import Path

from . import __version__, fuzzy, hybrid, io, timescale as tsmod
from .errors import (
    BlowUpError,
    ConfigError,
    FuzzyTSError,
    StepFailureError,
    UnknownPointError,
)
from .fuzzy import AlphaGrid, FuzzyVector
from .hybrid import HybridFuzzySystem, StepMode, SystemBundle
from .timescale import TimeScale

# The commands that read the comparison system, V and the class-K pair, whose
# layers main loads first; the others never compile them.
ANALYSIS_COMMANDS = ("compare", "stability")

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


# Every key the commands read, per section (keys are case-insensitive, so
# lower case); a config naming any other section or key is rejected.
KNOWN_KEYS = {
    "timescale": {"scale"},
    "system": {"name", "u0", "mode", "horizon", "rho", "switch_gap", "switch_times", "rhs",
               "lambda_0", "lambda_k"},
    "comparison": {"r0", "g", "psi"},
    "lyapunov": {"v", "a", "b"},
    "stability": {"lambda", "a", "b", "t0", "samples", "seed", "shape", "modes"},
    "output": {"dir", "alpha_levels"},
}

# The keys a catalog system does not read: it brings its own time scale,
# dynamics, comparison data and Lyapunov function.  Only example_3_9 reads
# [system] switch_gap.
CATALOG_UNREAD = (("timescale", "scale"), ("system", "rhs"), ("system", "lambda_0"),
                  ("system", "lambda_k"), ("system", "switch_times"), ("comparison", "g"),
                  ("comparison", "psi"), ("lyapunov", "v"), ("lyapunov", "a"), ("lyapunov", "b"))


def load_config(args) -> RunConfig:
    import configparser  # loaded after the analysis layers; see main
    sections: dict[str, dict[str, str]] = {}
    if getattr(args, "config", None):
        parser = configparser.ConfigParser()
        read = parser.read(args.config)
        if not read:
            raise ConfigError(f"config file not found: {args.config}")
        sections = {name: dict(parser[name]) for name in parser.sections()}
        for name, keys in sections.items():
            if name not in KNOWN_KEYS:
                raise ConfigError(f"unknown config section [{name}]")
            for key in keys:
                if key not in KNOWN_KEYS[name]:
                    raise ConfigError(f"unknown config key [{name}] {key}")

    def override(section: str, key: str, value) -> None:
        if value is not None:
            sections.setdefault(section, {})[key] = str(value)

    override("system", "name", getattr(args, "system", None))
    override("system", "u0", getattr(args, "u0", None))
    override("system", "mode", getattr(args, "mode", None))
    if getattr(args, "cmd", None) == "stability":
        override("stability", "modes", getattr(args, "mode", None))
    override("system", "horizon", getattr(args, "horizon", None))
    override("timescale", "scale", getattr(args, "timescale", None))
    override("stability", "seed", getattr(args, "seed", None))
    override("output", "alpha_levels", getattr(args, "alpha_levels", None))
    override("output", "dir", getattr(args, "out", None))

    output, seed = sections.get("output", {}), sections.get("stability", {}).get("seed")
    return RunConfig(sections, Path(output.get("dir", "out")),
                     _number("output", "alpha_levels", output.get("alpha_levels", "11"), int),
                     None if seed is None else _number("stability", "seed", seed, int))


def _get(cfg: RunConfig, section: str, key: str, default=None):
    return cfg.sections.get(section, {}).get(key, default)


def _require(cfg: RunConfig, section: str, key: str) -> str:
    value = _get(cfg, section, key)
    if value is None:
        raise ConfigError(f"missing config value [{section}] {key}")
    return value


def _get_number(cfg: RunConfig, section: str, key: str, default=None, kind=float):
    raw = _get(cfg, section, key)
    return default if raw is None else _number(section, key, raw, kind)


def _number(section: str, key: str, raw: str, kind=float):
    what = "a finite number" if kind is float else "an integer"
    try:
        value = kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} must be {what}: {raw!r}") from exc
    if kind is float and not math.isfinite(value):  # float() reads inf and nan
        raise ConfigError(f"[{section}] {key} must be {what}: {raw!r}")
    return value


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


def build_bundle(cfg: RunConfig) -> tuple[SystemBundle, float, StepMode]:
    """The system (with its comparison and Lyapunov data, built when first
    read), the horizon, and the step mode."""
    grid = AlphaGrid.uniform(cfg.alpha_levels)
    horizon = _number("system", "horizon", _require(cfg, "system", "horizon"))
    mode = _step_mode(_get(cfg, "system", "mode", "expansive"))
    rho = _get_number(cfg, "system", "rho", 100.0)

    name = _get(cfg, "system", "name")
    if name is not None:
        from . import catalog  # only a catalog config compiles the catalog
        u0_src = _get(cfg, "system", "u0")
        kwargs = {"u0": None if u0_src is None else parse_u0(u0_src, grid), "rho": rho,
                  "r0": _get_number(cfg, "comparison", "r0")}
        gap = _get_number(cfg, "system", "switch_gap", kind=int)
        if gap is not None and name == "example_3_9":
            kwargs["switch_gap"] = gap
        bundle = catalog.build(name, grid, horizon, **kwargs)
    else:
        bundle = build_dsl_bundle(cfg, grid, rho)
    # a key the system does not read would make the run describe another system
    unread = (CATALOG_UNREAD if name is not None else ()) + (
        (("system", "switch_gap"),) if name != "example_3_9" else ())
    for section, key in unread:
        if _get(cfg, section, key) is not None:
            raise ConfigError(f"[{section}] {key} is not read by system {bundle.name!r}")

    try:
        bundle.system.ts.index_of(horizon)
    except UnknownPointError as exc:
        raise ConfigError(f"horizon {horizon} is not a point of the time scale") from exc
    return bundle, horizon, mode


def build_dsl_bundle(cfg: RunConfig, grid: AlphaGrid, rho: float) -> SystemBundle:
    """Assemble a bundle from DSL expressions in the config.  Every expression
    is compiled, so a bad one fails any command, but the comparison and
    Lyapunov data are built (and evaluated) only when a command reads them."""
    from . import dsl
    ts = parse_timescale_spec(_require(cfg, "timescale", "scale"))
    u0 = parse_u0(_require(cfg, "system", "u0"), grid)
    switch_src = _get(cfg, "system", "switch_times", str(float(ts.points[0])))
    switch_times = tuple(_number("system", "switch_times", x) for x in switch_src.split())

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

    def switch_map(fn):
        return lambda t_k, u_k: state(fn(t_k, u_k), u_k)

    maps = (switch_map(lam0_fn),) + (switch_map(lamk_fn),) * (len(switch_times) - 1)
    system = HybridFuzzySystem(ts, switch_times, rhs, maps, rho, u0)

    g = scalar_fn("comparison", "g", "0", ("t", "r", "v"))
    psi = scalar_fn("comparison", "psi", "v", ("v",))
    V_fn = scalar_fn("lyapunov", "v", "d", ("t", "d"))
    a = scalar_fn("lyapunov", "a", "x", ("x",))
    b = scalar_fn("lyapunov", "b", "x", ("x",))
    r0 = _get_number(cfg, "comparison", "r0")

    def analysis():
        from .stability import LyapunovFn, build_analysis
        V = LyapunovFn(lambda t, u: V_fn(t, fuzzy.norm(u)))
        return build_analysis(system, g, psi, V, a, b, r0)
    return SystemBundle("dsl", system, analysis)


def build_query(cfg: RunConfig, rho: float):
    from .stability import StabilityQuery
    lam = _get_number(cfg, "stability", "lambda")
    big_a = _get_number(cfg, "stability", "a")
    if lam is None or big_a is None:
        raise ConfigError("stability checks need [stability] lambda and A")
    return StabilityQuery(
        lam=lam, A=big_a,
        B=_get_number(cfg, "stability", "b"),
        T0=_get_number(cfg, "stability", "t0"),
        rho=rho,
        count=_get_number(cfg, "stability", "samples", 200, int),
        seed=cfg.seed if cfg.seed is not None else 0,
        family=_get(cfg, "stability", "shape", "triangular"),
    )


def _write_meta(cfg: RunConfig, out: Path, command: str, outputs: list[str],
                extra: dict) -> None:
    payload = {
        "schema_version": io.SCHEMA_VERSION,
        "tool": "fuzzyts",
        "version": __version__,
        "command": command,
        "outputs": sorted(outputs),
        "config": cfg.sections,
        "alpha_levels": cfg.alpha_levels,
        "seed": cfg.seed,
        **extra,
    }
    io.write_json(out / "meta.json", payload)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    cfg = load_config(args)
    bundle, horizon, mode = build_bundle(cfg)
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    points = io.write_trajectory_csv(out / "trajectory.csv",
                                     hybrid.states(bundle.system, mode=mode, horizon=horizon))
    _write_meta(cfg, out, "simulate", ["trajectory.csv"],
                {"mode": mode.value, "horizon": horizon, "system": bundle.name})
    print(f"simulated {bundle.name} to t={horizon} ({points} points) -> {out}")
    return 0


def cmd_deriv(args) -> int:
    cfg = load_config(args)
    bundle, horizon, mode = build_bundle(cfg)
    from .hukuhara import delta_h_derivatives
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    io.write_derivative_csv(out / "derivative.csv", delta_h_derivatives(
        bundle.system.ts, hybrid.states(bundle.system, mode=mode, horizon=horizon)))
    _write_meta(cfg, out, "deriv", ["derivative.csv"],
                {"mode": mode.value, "horizon": horizon, "system": bundle.name})
    print(f"derivative table for {bundle.name} -> {out}")
    return 0


def cmd_compare(args) -> int:
    cfg = load_config(args)
    bundle, horizon, mode = build_bundle(cfg)
    from .comparison import solve_comparison
    from .stability import BOUND_TOL, comparison_bound
    V, comparison = bundle.lyapunov, bundle.comparison
    v_values = []

    def record_v(points):  # each state's V, as the state goes to the writer
        for t, k, u in points:
            v_values.append(V(t, u))
            yield t, k, u

    march = record_v(hybrid.states(bundle.system, mode=mode, horizon=horizon))
    first = next(march)  # u0, before any step: the gate reads its V
    if not v_values[0] <= comparison.r0 + BOUND_TOL:  # a nan V fails too
        print(f"hypothesis gate failed: V(t0, u0) = {v_values[0]} exceeds r0 = "
              f"{comparison.r0}; comparison bound not applicable", file=sys.stderr)
        return 2
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    scalar = solve_comparison(comparison, horizon=horizon)
    io.write_trajectory_csv(out / "trajectory.csv", itertools.chain((first,), march))
    times, r_values = scalar.times.tolist(), scalar.values.tolist()
    report = comparison_bound(times, v_values, r_values)
    holds, violations = report["holds"], len(report["violations"])
    io.write_comparison_csv(out / "comparison.csv", times, v_values, r_values)
    io.write_scalar_csv(out / "scalar.csv", scalar)
    _write_meta(cfg, out, "compare", ["comparison.csv", "scalar.csv", "trajectory.csv"],
                {"mode": mode.value, "horizon": horizon, "system": bundle.name,
                 "bound_holds": holds, "violations": violations})
    print(f"comparison bound on {bundle.name}: "
          f"{'holds' if holds else f'{violations} violations'} "
          f"over {report['checked_points']} points -> {out}")
    return 0 if holds else 1


def cmd_stability(args) -> int:
    cfg = load_config(args)
    bundle, horizon, _ = build_bundle(cfg)
    query = build_query(cfg, rho=bundle.system.rho)
    modes_key = _get(cfg, "stability", "modes", _get(cfg, "system", "mode", "both"))
    modes = tuple(StepMode) if modes_key == "both" else (_step_mode(modes_key),)
    from .stability import check_practical_stability
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
        if (w := outcome["witness"]) is not None:
            line += f" (witness t={w['t']}, value={w['value']}, bound={w['bound']})"
        print(line)
    if verdict.consistency["inconsistent"]:
        print("INCONSISTENCY: hypotheses and comparison passed but a direct "
              "violation was witnessed", file=sys.stderr)
    return verdict.exit_code()


def cmd_eval(args) -> int:
    from . import dsl
    scalars = {name: value for name in ("t", "r", "v", "d", "x")
               if (value := getattr(args, name, None)) is not None}
    for name, value in scalars.items():
        if not math.isfinite(value):  # float() reads inf and nan
            raise ConfigError(f"--{name} must be a finite number: {value!r}")
    ts = parse_timescale_spec(args.timescale) if args.timescale else None
    grid = AlphaGrid.uniform(11 if args.alpha_levels is None else args.alpha_levels)
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

def build_parser():
    import argparse  # loaded after the analysis layers; see main
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
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in ANALYSIS_COMMANDS:
        # Peak memory follows the order modules compile in: the analysis
        # layers compile before argparse and configparser load, so that their
        # compile's freed memory is filled again, as under an eager import.
        from . import stability  # noqa: F401
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
