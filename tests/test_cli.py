import csv
import json
from pathlib import Path

import numpy as np
import pytest

import fuzzyts as f
from fuzzyts import dsl, hybrid, io as ftio
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


def test_stability_missing_query_exits_2(tmp_path):
    assert run("stability", "--system", "crisp_contraction", "--horizon", 10,
               "--out", tmp_path / "v") == 2


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


def test_eval_fuzzy_literal(capsys):
    assert run("eval", "--fuzzy", "tri(-1,0,1)") == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha=0 [-1, 1]")


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
    built, nodes = [], []
    post_init, eval_fuzzy = f.FuzzyNumber.__post_init__, dsl.eval_fuzzy
    monkeypatch.setattr(f.FuzzyNumber, "__post_init__",
                        lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(dsl, "eval_fuzzy", lambda e, env: nodes.append(e) or eval_fuzzy(e, env))
    counts = {}
    for n in (1, 3):
        sys = dsl_system(n)
        built.clear()
        nodes.clear()
        hybrid.solve(sys)
        counts[n] = (len(built), len(nodes))
    assert counts[3] == (0, counts[1][1])
