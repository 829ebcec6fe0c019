import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fuzzyts as f
import test_golden
from fuzzyts import cli, dsl, hybrid, io as ftio
from fuzzyts.cli import RunConfig, build_dsl_bundle, main, parse_timescale_spec
from fuzzyts.errors import ConfigError
from fuzzyts.hukuhara import delta_h_derivative

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def run(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


CRISP_CFG = """
[system]
name = crisp_contraction
u0 = crisp(0.5)
mode = expansive
horizon = 10

[stability]
lambda = 1
A = 1
B = 0.1
T0 = 4
samples = 120
seed = 42
shape = crisp
"""

EXAMPLE_CFG = """
[system]
name = example_3_9
u0 = tri(-1,0,1)
mode = expansive
horizon = 10

[stability]
lambda = 1
A = 2
samples = 120
seed = 42
shape = triangular
modes = expansive
"""


# ---------------------------------------------------------------------------
# timescale spec parsing
# ---------------------------------------------------------------------------

def test_parse_timescale_specs():
    assert len(parse_timescale_spec("integer(10)")) == 11
    assert parse_timescale_spec("qscale(1, 2, 4)").sigma(4.0) == 8.0
    assert parse_timescale_spec("uniform(0, 0.5, 4)").mu(0.0) == pytest.approx(0.5)
    assert parse_timescale_spec("intervals([[0,1],[2,3]], 0.5)").sigma(1.0) == 2.0
    assert parse_timescale_spec("explicit([0, 1, 4])").mu(1.0) == 3.0
    assert len(parse_timescale_spec("integer")) == 33  # bare name default
    with pytest.raises(ConfigError):
        parse_timescale_spec("spiral(3)")
    with pytest.raises(ConfigError):
        parse_timescale_spec("integer(")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

SHARED_FLAGS = {"--config": "run.cfg", "--out": "o", "--seed": "7", "--alpha-levels": "5",
                "--mode": "contractive", "--horizon": "2.5", "--system": "example_3_9",
                "--u0": "crisp(1)", "--timescale": "integer(9)"}


@pytest.mark.parametrize("command, func", [
    ("simulate", cli.cmd_simulate), ("compare", cli.cmd_compare),
    ("stability", cli.cmd_stability), ("deriv", cli.cmd_deriv), ("dini", cli.cmd_deriv)])
def test_state_commands_parse_the_shared_flags_alike(command, func):
    argv = [command] + [word for flag in SHARED_FLAGS.items() for word in flag]
    parsed = vars(cli.build_parser().parse_args(argv))
    assert parsed.pop("cmd") == command and parsed.pop("func") is func
    assert parsed == {"config": "run.cfg", "out": "o", "seed": 7, "alpha_levels": 5,
                      "mode": "contractive", "horizon": 2.5, "system": "example_3_9",
                      "u0": "crisp(1)", "timescale": "integer(9)"}


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_example_triangular(tmp_path):
    out = tmp_path / "run"
    assert run("simulate", "--system", "example_3_9", "--horizon", 10,
               "--u0", "tri(-1,0,1)", "--out", out) == 0
    rows = read_rows(out / "trajectory.csv")
    at_t2_alpha0 = [r for r in rows if float(r["t"]) == 2.0 and float(r["alpha"]) == 0.0]
    assert len(at_t2_alpha0) == 1
    assert float(at_t2_alpha0[0]["lower"]) == pytest.approx(-2.25, abs=TOL)
    assert float(at_t2_alpha0[0]["upper"]) == pytest.approx(2.25, abs=TOL)
    meta = json.loads((out / "meta.json").read_text())
    assert meta["command"] == "simulate" and meta["schema_version"] == 1


def test_simulate_crisp_start(tmp_path):
    out = tmp_path / "run"
    assert run("simulate", "--system", "example_3_9", "--horizon", 10,
               "--u0", "crisp(1)", "--out", out) == 0
    rows = read_rows(out / "trajectory.csv")
    at_t2 = [r for r in rows if float(r["t"]) == 2.0 and float(r["alpha"]) == 0.0][0]
    assert float(at_t2["lower"]) == pytest.approx(0.25, abs=TOL)
    assert float(at_t2["upper"]) == pytest.approx(0.25, abs=TOL)


def test_simulate_horizon_off_scale_exits_2(tmp_path):
    assert run("simulate", "--system", "example_3_9", "--horizon", 10.5,
               "--out", tmp_path / "x") == 2


def test_simulate_unknown_system_exits_2(tmp_path):
    assert run("simulate", "--system", "nope", "--horizon", 10,
               "--out", tmp_path / "x") == 2


def test_trajectory_csv_round_trip(tmp_path):
    out = tmp_path / "run"
    run("simulate", "--system", "example_3_9", "--horizon", 10,
        "--u0", "tri(-0.3,0.1,0.9)", "--out", out)
    times, segments, values = ftio.load_trajectory_csv(out / "trajectory.csv")
    from fuzzyts import catalog, hybrid
    bundle = catalog.make_example_3_9(
        GRID, 10.0, u0=f.vector(f.make_triangle(-0.3, 0.1, 0.9, GRID)))
    traj = hybrid.solve(bundle.system, horizon=10.0)
    assert times == [float(t) for t in traj.times]
    assert segments == traj.segments
    for loaded, original in zip(values, traj.values):
        assert f.dist(loaded, original) <= TOL


def test_simulate_dsl_system(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", """
[timescale]
scale = integer(12)

[system]
rhs = circminus(u) fadd smul(eta(t), lam)
lambda_0 = crisp(0)
lambda_k = u_k
switch_times = 0 5 10
u0 = crisp(1)
mode = expansive
horizon = 12
""")
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    rows = read_rows(out / "trajectory.csv")
    at_t2 = [r for r in rows if float(r["t"]) == 2.0 and float(r["alpha"]) == 0.0][0]
    assert float(at_t2["lower"]) == pytest.approx(0.25, abs=TOL)


DSL_SIMULATE_CFG = """
[timescale]
scale = integer(6)

[system]
rhs = {rhs}
u0 = tri(-1,0,1)
mode = expansive
horizon = 6
"""


@pytest.mark.parametrize("rhs, message", [
    ("ghsub(tri(-1,0,1), trap(-0.5,-0.5,0.5,0.5))",
     "solver step failed at t=0.0: expansive step failed at t=0.0: gH difference does not exist"),
    ("smul(1e200, u)",
     "solver step failed at t=1.0: expansive step failed at t=1.0: endpoints must be finite"),
], ids=["gh-difference-missing", "non-finite-state"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_step_failure_exits_1(tmp_path, capsys, rhs, message):
    cfg = write_cfg(tmp_path / "run.cfg", DSL_SIMULATE_CFG.format(rhs=rhs))
    assert run("simulate", "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out" / "trajectory.csv").exists()


def test_simulate_switch_map_failure_exits_1(tmp_path, capsys):
    # at t=2 the state is 0.81 * tri(-1,0,1), wider at alpha 0 than the trapezoid
    # and narrower at its core, so the gH difference of the switch map fails
    cfg = write_cfg(tmp_path / "run.cfg", """
[timescale]
scale = integer(4)

[system]
rhs = smul(-0.1, u)
lambda_k = ghsub(u_k, trap(-0.5,-0.2,0.2,0.5))
switch_times = 0 2
u0 = tri(-1,0,1)
mode = expansive
horizon = 4
""")
    assert run("simulate", "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(
        "solver step failed at t=2.0: expansive step failed at t=2.0: "
        "gH difference does not exist")


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_example_margins(tmp_path):
    out = tmp_path / "out"
    assert run("compare", "--system", "example_3_9", "--horizon", 10,
               "--u0", "tri(-1,0,1)", "--out", out) == 0
    rows = read_rows(out / "comparison.csv")
    margins = {float(r["t"]): float(r["margin"]) for r in rows}
    assert margins[0.0] == pytest.approx(0.0, abs=TOL)
    assert margins[1.0] == pytest.approx(0.5, abs=TOL)
    assert margins[2.0] == pytest.approx(1.25, abs=TOL)
    scalar_rows = read_rows(out / "scalar.csv")
    assert [r["t"] for r in scalar_rows][:2] == ["0", "1"]


def test_compare_growing_slack_fails_or_writes_a_loadable_csv(tmp_path):
    """tri(-0.3,0.1,0.9)'s core comes in with rounding slack (-0.3 + 0.4
    rounds above 0.1), which the expansive run would enlarge with the state
    past ATOL at t=19.  It is removed where the state is built, so the run
    reaches t=30 and writes exact states: the loader reads them back bit
    for bit, moving none."""
    out = tmp_path / "out"
    assert run("compare", "--system", "example_3_9", "--horizon", 30,
               "--u0", "tri(-0.3,0.1,0.9)", "--out", out) == 0
    times, _, values = ftio.load_trajectory_csv(out / "trajectory.csv")
    assert times[-1] == 30.0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    written = np.array([row.split(",")[4:] for row in rows], dtype=float).reshape(len(values), -1, 2)
    loaded = np.stack([np.stack((v.lower.ravel(), v.upper.ravel()), -1) for v in values])
    assert written.tobytes() == loaded.tobytes()


def test_compare_precondition_gate_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "c.cfg", """
[system]
name = crisp_contraction
u0 = crisp(1)
horizon = 6

[comparison]
r0 = 0.5
""")
    assert run("compare", "--config", cfg, "--out", tmp_path / "o") == 2


def test_compare_zero_dynamics_zero_margin(tmp_path):
    cfg = write_cfg(tmp_path / "z.cfg", """
[timescale]
scale = integer(6)

[system]
rhs = smul(0, u)
u0 = crisp(1)
horizon = 6

[comparison]
g = 0
r0 = 1
""")
    out = tmp_path / "o"
    assert run("compare", "--config", cfg, "--out", out) == 0
    rows = read_rows(out / "comparison.csv")
    assert all(float(r["margin"]) == pytest.approx(0.0, abs=TOL) for r in rows)


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def test_stability_crisp_contraction_exit_0(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "crisp.cfg", CRISP_CFG)
    out = tmp_path / "v"
    assert run("stability", "--config", cfg, "--out", out) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert all(verdict["properties"][p]["status"] == "holds-on-samples"
               for p in verdict["properties"])
    assert capsys.readouterr().out.count("holds-on-samples") == 4


def test_stability_example_violation_exit_1(tmp_path):
    cfg = write_cfg(tmp_path / "ex.cfg", EXAMPLE_CFG)
    out = tmp_path / "v"
    assert run("stability", "--config", cfg, "--out", out) == 1
    verdict = json.loads((out / "verdict.json").read_text())
    witness = verdict["properties"]["practically_stable"]["witness"]
    assert witness["t"] == 2.0
    assert witness["value"] == 2.25
    assert verdict["consistency"]["inconsistent"] is False


def test_stability_lambda_above_A_exits_2(tmp_path):
    cfg = write_cfg(tmp_path / "bad.cfg", CRISP_CFG.replace("lambda = 1", "lambda = 3"))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2


def test_stability_A_outside_the_validity_ball_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg", test_golden.CATALOG_STABILITY.replace(
        "[system]\n", "[system]\nrho = 2\n"))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == "error: need A < rho, got A=2.0, rho=2.0\n"
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command", ["stability", "compare"])
def test_horizon_off_the_scale_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path / "h.cfg",
                    test_golden.DSL_STABILITY.replace("horizon = 2.4", "horizon = 2.45"))
    assert run(command, "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == "error: horizon 2.45 is not a point of the time scale\n"
    assert not (tmp_path / "v").exists()


def test_stability_zero_samples_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "s.cfg", test_golden.DSL_STABILITY.replace("samples = 6",
                                                                           "samples = 0"))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == "error: sampling count must be >= 1\n"


# A switch map whose gH difference fails for some samples at the second
# switch time (t = 1.5) of the dsl-ghsub-stability golden case.
GHSUB_SWITCH_STABILITY = test_golden.DSL_GHSUB_STABILITY.replace(
    "lambda_k = u_k", "lambda_k = ghsub(u_k, trap(-0.5,-0.2,0.2,0.5))")


def test_stability_skips_the_samples_whose_switch_map_fails(tmp_path):
    cfg = write_cfg(tmp_path / "g.cfg", GHSUB_SWITCH_STABILITY)
    out = tmp_path / "v"
    assert run("stability", "--config", cfg, "--out", out) == 0
    skipped = json.loads((out / "verdict.json").read_text())["metadata"]["skipped_step_failures"]
    assert {"mode": "expansive", "sample": 5, "t": 1.5} in skipped


def test_stability_missing_query_exits_2(tmp_path):
    assert run("stability", "--system", "crisp_contraction", "--horizon", 10,
               "--out", tmp_path / "v") == 2


@pytest.mark.parametrize("old, new", [
    ("alpha_levels = 5", "alpha_levels = 5.5"),
    ("seed = 3", "seed = three"),
    ("samples = 16", "samples = 1e2"),
    ("lambda = 1", "lambda = one"),
    ("modes = both", "modes = sideways"),
    (None, None),  # no config file at all
])
def test_stability_bad_config_exits_2(tmp_path, capsys, old, new):
    cfg = tmp_path / "run.cfg"
    if old is not None:
        assert old in test_golden.CATALOG_STABILITY
        write_cfg(cfg, test_golden.CATALOG_STABILITY.replace(old, new))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "v").exists()


def test_verdict_byte_determinism(tmp_path):
    cfg = write_cfg(tmp_path / "crisp.cfg", CRISP_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("stability", "--config", cfg, "--out", out1) == 0
    assert run("stability", "--config", cfg, "--out", out2) == 0
    assert (out1 / "verdict.json").read_bytes() == (out2 / "verdict.json").read_bytes()


def test_trajectory_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run("simulate", "--system", "example_3_9", "--horizon", 10,
            "--u0", "tri(-1,0,1)", "--out", out)
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


# ---------------------------------------------------------------------------
# deriv
# ---------------------------------------------------------------------------

def test_deriv_table_matches_library(tmp_path):
    out = tmp_path / "d"
    assert run("deriv", "--system", "example_3_9", "--horizon", 5,
               "--u0", "tri(-1,0,1)", "--out", out) == 0
    rows = read_rows(out / "derivative.csv")
    from fuzzyts import catalog, hybrid
    bundle = catalog.make_example_3_9(GRID, 5.0)
    traj = hybrid.solve(bundle.system, horizon=5.0)
    d0 = delta_h_derivative(traj, 0.0)
    got = [r for r in rows if float(r["t"]) == 0.0 and float(r["alpha"]) == 0.0][0]
    assert float(got["lower"]) == pytest.approx(d0[0].cut(0)[0], abs=TOL)
    assert float(got["upper"]) == pytest.approx(d0[0].cut(0)[1], abs=TOL)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_eta(capsys):
    assert run("eval", "eta(t)", "--timescale", "integer", "--t", 3) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_eval_precedence(capsys):
    assert run("eval", "1+2*3") == 0
    assert capsys.readouterr().out.strip() == "7"


def test_eval_syntax_error_exit_2(capsys):
    assert run("eval", "(r+") == 2
    assert "column" in capsys.readouterr().err


def test_eval_division_by_zero_exits_2_with_its_span(capsys):
    assert run("eval", "1/(r-r)", "--r", 3) == 2
    assert capsys.readouterr().err == "error: division by zero at line 1, column 2\n"


def test_eval_fuzzy_literal(capsys):
    assert run("eval", "--fuzzy", "tri(-1,0,1)") == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha=0 [-1, 1]")


# ---------------------------------------------------------------------------
# Import footprint: a command loads only what it runs
# ---------------------------------------------------------------------------

FOOTPRINT_SCRIPT = """
import sys
from fuzzyts.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in ("fuzzyts.dsl", "logging", "csv", "dataclasses")
                    if m in sys.modules))
"""


def fresh_cli(*argv):
    """Run ``cli.main(argv)`` in a fresh interpreter that writes no bytecode:
    its printed lines, whose last is the exit code and the optional modules
    it loaded."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, *map(str, argv)],
                          env=env, capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


@pytest.mark.parametrize("case, loaded", [("catalog-stability", ""),
                                          ("dsl-stability", " fuzzyts.dsl")])
def test_a_command_imports_the_dsl_only_for_dsl_input(tmp_path, case, loaded):
    command, config, exit_code, _ = test_golden.CASES[case]
    cfg = write_cfg(tmp_path / "run.cfg", config)
    lines = fresh_cli(command, "--config", cfg, "--out", tmp_path / "out")
    assert lines[-1] == f"{exit_code}{loaded}"  # never logging, csv or dataclasses


def test_eval_in_a_fresh_interpreter_prints_its_value():
    assert fresh_cli("eval", "1+2") == ["3", "0 fuzzyts.dsl"]


# ---------------------------------------------------------------------------
# DSL systems: one evaluation per state
# ---------------------------------------------------------------------------

def dsl_system(n, rhs="circminus(u) fadd smul(eta(t), lam)", lambda_0="u_k"):
    sections = {
        "timescale": {"scale": "integer(12)"},
        "system": {"rhs": rhs, "lambda_0": lambda_0, "lambda_k": "u_k",
                   "switch_times": "0 6", "u0": " | ".join(["tri(-1,0,1)"] * n)},
    }
    cfg = RunConfig(sections, Path("out"), GRID.m, None)
    return build_dsl_bundle(cfg, GRID, 12.0, 100.0).system


def test_literal_only_dsl_result_is_given_to_every_component():
    sys = dsl_system(3, rhs="crisp(1)", lambda_0="trap(0,0.1,0.2,0.3)")
    lam = sys.switch_maps[0](0.0, sys.u0)
    assert lam.n == 3 and sys.rhs(0.0, sys.u0, lam).n == 3
    for row in lam:
        assert np.array_equal(row.lower, f.make_trapezoid(0, 0.1, 0.2, 0.3, GRID).lower)
    traj = hybrid.solve(sys)
    assert [v.n for v in traj.values] == [3] * len(traj)


def test_dsl_system_is_evaluated_once_per_state(monkeypatch):
    built, kernels = [], []
    post_init, add, scale = f.FuzzyNumber.__post_init__, f.fuzzy.add, f.fuzzy.scale
    monkeypatch.setattr(f.FuzzyNumber, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(f.fuzzy, "add", lambda u, v: kernels.append("add") or add(u, v))
    monkeypatch.setattr(f.fuzzy, "scale", lambda k, u: kernels.append("scale") or scale(k, u))
    f.FuzzyNumber(GRID, np.zeros(GRID.m), np.ones(GRID.m))
    assert len(built) == 1  # the hook sees a direct build
    counts = {}
    for n in (1, 3):
        sys = dsl_system(n)
        built.clear()
        kernels.clear()
        hybrid.solve(sys)
        counts[n] = (len(built), len(kernels))
    assert counts[1][1] >= 3 * 12  # rhs: two scales and an add per step
    assert counts[3] == (0, counts[1][1])


def test_dsl_stability_run_builds_no_env_after_the_bundle(tmp_path, monkeypatch):
    built, envs = [], []
    init, build_bundle = dsl.Env.__init__, cli.build_bundle
    monkeypatch.setattr(dsl.Env, "__init__",
                        lambda self, *a, **k: envs.append(bool(built)) or init(self, *a, **k))
    monkeypatch.setattr(cli, "build_bundle", lambda cfg: built.append(1) or build_bundle(cfg))
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.DSL_STABILITY)
    assert run("stability", "--config", cfg, "--out", tmp_path / "out") == 1
    assert built and True not in envs
