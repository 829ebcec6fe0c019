import argparse
import ast
import csv
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import fuzzyts as f
import test_golden
from fuzzyts import cli, dsl, hybrid, io as ftio, stability
from fuzzyts.cli import RunConfig, build_dsl_bundle, main, parse_timescale_spec
from fuzzyts.errors import ConfigError
from fuzzyts.hukuhara import FuzzyTrajectory, delta_h_derivative
from fuzzyts.stability import LyapunovFn

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


def test_simulate_switches_at_the_stored_point_a_switch_time_names(tmp_path):
    # 0.9 names the stored point 0.8999999999999999 (= 3 * 0.3), which opens segment 1
    cfg = write_cfg(tmp_path / "run.cfg", """
[timescale]
scale = uniform(0, 0.3, 10)

[system]
rhs = smul(-0.5, u) fadd lam
lambda_0 = crisp(0)
lambda_k = u_k
switch_times = 0 0.9
u0 = tri(-1,0,1)
mode = expansive
horizon = 3
""")
    out = tmp_path / "out"
    assert run("simulate", "--config", cfg, "--out", out) == 0
    segments = {float(r["t"]): int(r["segment_k"]) for r in read_rows(out / "trajectory.csv")}
    assert 0.9 not in segments and segments[0.8999999999999999] == 1
    assert list(segments.values()) == [0] * 3 + [1] * 8


DSL_SIMULATE_CFG = """
[timescale]
scale = integer(6)

[system]
rhs = {rhs}
u0 = tri(-1,0,1)
mode = expansive
horizon = 6
"""


STEP_FAILURES = pytest.mark.parametrize("rhs, message", [
    ("ghsub(tri(-1,0,1), trap(-0.5,-0.5,0.5,0.5))",
     "solver step failed at t=0.0: expansive step failed at t=0.0: gH difference does not exist"),
    ("smul(1e200, u)",
     "solver step failed at t=1.0: expansive step failed at t=1.0: endpoints must be finite"),
], ids=["gh-difference-missing", "non-finite-state"])

# deriv and compare march as simulate does, so they must fail as it does: a
# test parametrized with MARCHING runs a simulate test's body with its command
MARCHING = pytest.mark.parametrize("command", ["deriv", "compare"])


@STEP_FAILURES
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_step_failure_exits_1(tmp_path, capsys, rhs, message, command="simulate"):
    cfg = write_cfg(tmp_path / "run.cfg", DSL_SIMULATE_CFG.format(rhs=rhs))
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(message)
    assert list((tmp_path / "out").iterdir()) == []  # no artifact, *.part or meta.json


@MARCHING
@STEP_FAILURES
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_deriv_and_compare_step_failure_exits_1(tmp_path, capsys, rhs, message, command):
    test_simulate_step_failure_exits_1(tmp_path, capsys, rhs, message, command)


def test_simulate_switch_map_failure_exits_1(tmp_path, capsys, command="simulate"):
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
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith(
        "solver step failed at t=2.0: expansive step failed at t=2.0: "
        "gH difference does not exist")
    assert list((tmp_path / "out").iterdir()) == []


@MARCHING
def test_deriv_and_compare_switch_map_failure_exits_1(tmp_path, capsys, command):
    test_simulate_switch_map_failure_exits_1(tmp_path, capsys, command)


def test_failed_simulate_leaves_the_earlier_artifacts_as_they_were(tmp_path, capsys):
    out = tmp_path / "out"
    good = write_cfg(tmp_path / "good.cfg", DSL_SIMULATE_CFG.format(rhs="smul(-0.5, u)"))
    assert run("simulate", "--config", good, "--out", out) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(before) == ["meta.json", "trajectory.csv"]
    bad = write_cfg(tmp_path / "bad.cfg", DSL_SIMULATE_CFG.format(rhs="smul(1e200, u)"))
    assert run("simulate", "--config", bad, "--out", out) == 1
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


# Reads the peak resident set of the simulating process from its own status file.
PEAK_SCRIPT = (
    "import sys\n"
    "from fuzzyts.cli import main\n"
    "assert main(sys.argv[1:]) == 0\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(next(int(line.split()[1]) for line in fh if line.startswith('VmHWM:')))\n"
)

LONG_SIMULATE_CFG = """
[timescale]
scale = integer({n})

[system]
rhs = smul(-0.001, u) fadd smul(0.001, lam)
lambda_0 = crisp(0)
lambda_k = u_k
switch_times = 0 100 200
u0 = tri(-1,0,1) | tri(-0.5,0.25,2) | trap(-2,-1,0,1) | tri(0,1,3)
horizon = {n}
mode = expansive

[output]
alpha_levels = 51
"""


# r grows by 1% a step, faster than V = d of the state above, so the
# comparison bound holds and compare exits 0
LONG_COMPARE_G = "\n[comparison]\ng = 0.01 * r\n"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_simulate_peak_memory_does_not_grow_with_the_horizon(tmp_path, command="simulate"):
    # 2,700 more 4-component, 51-level states are about 9 MB when held
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    config = LONG_SIMULATE_CFG + (LONG_COMPARE_G if command == "compare" else "")
    runs = []
    for n in (300, 3000):  # side by side, to keep the test short
        cfg = write_cfg(tmp_path / f"run{n}.cfg", config.format(n=n))
        argv = [command, "--config", cfg, "--out", str(tmp_path / f"out{n}")]
        runs.append(subprocess.Popen([sys.executable, "-c", PEAK_SCRIPT, *argv],
                                     env=env, stdout=subprocess.PIPE, text=True))
    peaks_kb = [int(run.communicate(timeout=60)[0].split()[-1]) for run in runs]
    assert [run.returncode for run in runs] == [0, 0]
    assert abs(peaks_kb[1] - peaks_kb[0]) < 3 * 1024, peaks_kb


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
@MARCHING
def test_deriv_and_compare_peak_memory_does_not_grow_with_the_horizon(tmp_path, command):
    test_simulate_peak_memory_does_not_grow_with_the_horizon(tmp_path, command)


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


def test_the_mode_flag_overrides_the_configured_stability_modes(tmp_path):
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.CATALOG_STABILITY)  # modes = both
    out = tmp_path / "v"
    # every contractive step of example_3_9 fails, so nothing is tested
    assert run("stability", "--config", cfg, "--mode", "contractive", "--out", out) == 2
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["metadata"]["modes"] == ["contractive"]
    echoed = json.loads((out / "meta.json").read_text())["config"]
    assert echoed["stability"]["modes"] == echoed["system"]["mode"] == "contractive"


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


def test_monotonicity_times_are_drawn_up_to_the_horizon(tmp_path):
    """g is monotone only up to t = 2.05, and the run stops at t = 2.0."""
    cfg = write_cfg(tmp_path / "m.cfg", test_golden.DSL_STABILITY.replace(
        "horizon = 2.4", "horizon = 2.0").replace(
        "g = (-r + v)/(1 + mu(t))", "g = (-r + v)/(1 + mu(t)) - 100 * r * max(t - 2.05, 0)"))
    out = tmp_path / "v"
    assert run("stability", "--config", cfg, "--out", out) == 1
    report = json.loads((out / "verdict.json").read_text())["hypothesis_report"]["monotonicity"]
    assert report["passed"] is True and report["g_mu_r_violations"] == []


def test_monotonicity_times_stop_before_the_horizon(tmp_path):
    """g is non-monotone in r only at t = 2.0, the horizon, where the run never calls it."""
    cfg = write_cfg(tmp_path / "m.cfg", test_golden.DSL_STABILITY.replace(
        "horizon = 2.4", "horizon = 2.0").replace(
        "g = (-r + v)/(1 + mu(t))", "g = (-r + v)/(1 + mu(t)) - 1000 * r * max(t - 1.95, 0)"))
    out = tmp_path / "v"
    assert run("stability", "--config", cfg, "--out", out) == 1
    report = json.loads((out / "verdict.json").read_text())["hypothesis_report"]["monotonicity"]
    assert report["passed"] is True and report["g_mu_r_violations"] == []


def test_stability_zero_samples_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "s.cfg", test_golden.DSL_STABILITY.replace("samples = 6",
                                                                           "samples = 0"))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == "error: sampling count must be >= 1\n"


def test_stability_unknown_shape_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "s.cfg", test_golden.DSL_STABILITY.replace(
        "samples = 6", "samples = 6\nshape = box"))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == "error: unknown sampling family 'box'\n"
    assert not (tmp_path / "v").exists()


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
    ("seed = 3", "seed = -1"),
    ("seed = 3", f"seed = {2 ** 64}"),
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


@pytest.mark.parametrize("seed", [-5, 2 ** 64])
def test_seed_flag_outside_64_bits_exits_2(tmp_path, capsys, seed):
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.CATALOG_STABILITY)
    assert run("stability", "--config", cfg, "--seed", seed, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("command, config, flags, message", [
    ("stability", test_golden.CATALOG_STABILITY.replace("horizon = 20", "horizon = 20\nrho = inf"),
     (), "[system] rho must be a finite number: 'inf'"),
    ("stability", test_golden.CATALOG_STABILITY.replace("A = 2", "A = 2\nB = nan\nT0 = 1"),
     (), "[stability] b must be a finite number: 'nan'"),
    ("compare", test_golden.CATALOG_COMPARE + "\n[comparison]\nr0 = inf\n",
     (), "[comparison] r0 must be a finite number: 'inf'"),
    ("stability", test_golden.CATALOG_STABILITY.replace("lambda = 1", "lambda = 1e999"),
     (), "[stability] lambda must be a finite number: '1e999'"),
    ("stability", test_golden.CATALOG_STABILITY,
     ("--horizon", "inf"), "[system] horizon must be a finite number: 'inf'"),
], ids=["rho", "B", "r0", "lambda", "horizon"])
def test_a_non_finite_config_number_exits_2(tmp_path, capsys, command, config, flags, message):
    cfg = write_cfg(tmp_path / "run.cfg", config)
    assert run(command, "--config", cfg, *flags, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("old, new, message", [
    ("alpha_levels = 5", "alpha_levels = 5.5", "[output] alpha_levels must be an integer: '5.5'"),
    ("seed = 3", "seed = three", "[stability] seed must be an integer: 'three'"),
    ("horizon = 20\n", "", "missing config value [system] horizon"),
])
def test_a_config_integer_or_horizon_that_cannot_be_read_exits_2(tmp_path, capsys, old, new,
                                                                  message):
    assert old in test_golden.CATALOG_STABILITY
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.CATALOG_STABILITY.replace(old, new))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "v").exists()


# V is nan wherever d > 0, so also at t0, and r0 = 1
NAN_V = test_golden.DSL_STABILITY.replace(
    "V = d", "V = d * 1e308 * 1e308 - d * 1e308 * 1e308").replace(
    "g = (-r + v)/(1 + mu(t))", "g = -r/(1 + mu(t))").replace("psi = v", "psi = v\nr0 = 1")


def test_compare_with_a_nan_V_fails_the_gate_and_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg", NAN_V)
    assert run("compare", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == ("hypothesis gate failed: V(t0, u0) = nan exceeds r0 = 1.0; "
                                       "comparison bound not applicable\n")
    assert not (tmp_path / "v").exists()


# V is d up to d = 2 and nan (or inf) beyond: the sandwich draws d < A = 2 and
# sees only finite values, the Lipschitz pairs, drawn up to 2A, do not
V_NAN_BEYOND_2 = test_golden.DSL_STABILITY.replace(
    "V = d", "V = d + (max(d - 2, 0) * 1e308 * 1e308 - max(d - 2, 0) * 1e308 * 1e308)").replace(
    "g = (-r + v)/(1 + mu(t))", "g = 1e6")
V_INF_BEYOND_2 = test_golden.DSL_STABILITY.replace(
    "V = d", "V = d + max(d - 2, 0) * 1e308 * 1e308")
# the direct route's states grow past 1e8, so V = d * 1e300 overflows in condition (ii)
V_OVERFLOW = test_golden.DSL_STABILITY.replace("V = d", "V = d * 1e300").replace(
    "rhs = circminus(u) fadd smul(eta(t), lam)", "rhs = smul(1e9, u)")


def nan_beyond(x, c):
    """A DSL term that is 0 where ``x`` <= ``c`` and nan (inf - inf) beyond."""
    return f"(max({x} - {c}, 0) * 1e308 * 1e308 - max({x} - {c}, 0) * 1e308 * 1e308)"


# The monotonicity check draws r, v and psi's v in (0, 2 b(A)) = (0, 4)
NAN_G_IN_MONOTONICITY = test_golden.DSL_STABILITY.replace(
    "g = (-r + v)/(1 + mu(t))", "g = (-r + v)/(1 + mu(t)) + " + nan_beyond("r", 1.5))
NAN_PSI_IN_MONOTONICITY = test_golden.DSL_STABILITY.replace(
    "psi = v", "psi = v + " + nan_beyond("v", 1.5))


@pytest.mark.parametrize("config, message", [
    (NAN_V, r"V is not finite at t=[0-9.]+, d=[0-9.]+: nan"),
    (test_golden.DSL_STABILITY.replace("b = x", "b = x * 1e308 * 1e308"),
     r"b is not finite at x=0\.03: inf"),
    (test_golden.DSL_STABILITY.replace("a = x", "a = x - x * 1e308 * 1e308 + x * 1e308 * 1e308"),
     r"a is not finite at x=0\.03: nan"),
    (V_NAN_BEYOND_2, r"V is not finite at t=0\.5: nan"),
    (V_INF_BEYOND_2, r"V is not finite at t=0\.5: inf"),
    (V_OVERFLOW, r"V is not finite at t=0\.2, mode=expansive, sample=-1: inf"),
    (NAN_G_IN_MONOTONICITY, r"g is not finite at t=0\.2, r=1\.58[0-9]+, v=1\.77[0-9]+: nan"),
    (NAN_PSI_IN_MONOTONICITY, r"psi is not finite at k=0, v=1\.81[0-9]+: nan"),
], ids=["V-nan", "b-inf", "a-nan", "lipschitz-V-nan", "lipschitz-V-inf", "condition-ii-V-inf",
        "monotonicity-g-nan", "monotonicity-psi-nan"])
def test_stability_with_a_non_finite_V_a_or_b_exits_2(tmp_path, capsys, config, message):
    cfg = write_cfg(tmp_path / "run.cfg", config)
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"error: {message}\n", err), err
    assert not (tmp_path / "v").exists()


def test_a_direct_violation_where_hypotheses_and_comparison_pass_is_inconsistent(
        tmp_path, capsys, monkeypatch):
    # on DSL_STABILITY only condition (ii) fails, the comparison grid holds and
    # the direct route is violated: with condition (ii) passing, the run is
    # inconsistent
    def passing(comp, stacks):
        return {"passed": True, "checked_steps": 1, "worst_margin": 0.0, "violations": []}

    monkeypatch.setattr(stability, "_check_condition_ii", passing)
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.DSL_STABILITY)
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 1
    assert capsys.readouterr().err == ("INCONSISTENCY: hypotheses and comparison passed but a "
                                       "direct violation was witnessed\n")
    verdict = json.loads((tmp_path / "v" / "verdict.json").read_text())
    assert verdict["hypothesis_report"]["all_passed"] is True
    assert verdict["comparison_verdict"]["practically_stable"] == stability.HOLDS
    witness = verdict["properties"]["practically_stable"]["witness"]
    assert witness is not None
    details = verdict["consistency"]["details"]
    assert {"property": "practically_stable", "witness": witness} in details
    assert verdict["consistency"]["inconsistent"] is verdict["consistency"]["checked"] is True


@pytest.mark.parametrize("token", ["abc", "inf", "nan"])
def test_a_switch_time_that_is_no_finite_number_exits_2(tmp_path, capsys, token):
    config = test_golden.DSL_STABILITY.replace("switch_times = 0 1.5", f"switch_times = 0 {token}")
    cfg = write_cfg(tmp_path / "run.cfg", config)
    assert run("simulate", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == (
        f"error: [system] switch_times must be a finite number: {token!r}\n")
    assert not (tmp_path / "v").exists()


@pytest.mark.parametrize("new, message", [
    ("samplez = 999\nrho = 5", "unknown config key [stability] samplez"),
    ("rho = 5", "unknown config key [stability] rho"),
    ("B = 1\n\n[outputs]\ndir = o", "unknown config section [outputs]"),
])
def test_unknown_config_section_or_key_exits_2(tmp_path, capsys, new, message):
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.CATALOG_STABILITY.replace(
        "seed = 3", f"seed = 3\n{new}"))
    assert run("stability", "--config", cfg, "--out", tmp_path / "v") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "v").exists()


def perfbench_modules():
    """``perfbench/workloads.py`` and ``perfbench/check.py``, run from source so
    that no bytecode is written there.  Each is in ``sys.modules`` under its
    own name while they load: the dataclass looks its module up, and
    ``check`` imports ``workloads``."""
    path = Path(__file__).resolve().parents[1] / "perfbench"
    loaded = []
    with mock.patch.dict(sys.modules):
        for name in ("workloads", "check"):
            module = sys.modules[name] = types.ModuleType(name)
            source = path / f"{name}.py"
            exec(compile(source.read_text(), str(source), "exec"), vars(module))
            loaded.append(module)
    return loaded


def shipped_configs():
    """Every golden config and every benchmark workload's config, by name."""
    workloads, _ = perfbench_modules()
    return {**{case: config for case, (_, config, _, _) in test_golden.CASES.items()},
            **{name: w.config_text(42) for name, w in workloads.WORKLOADS.items()}}


@pytest.mark.parametrize("name, config", sorted(shipped_configs().items()))
def test_shipped_configs_use_only_known_keys(tmp_path, name, config):
    cfg = cli.load_config(argparse.Namespace(config=write_cfg(tmp_path / "run.cfg", config)))
    assert cfg.sections and all(set(keys) <= cli.KNOWN_KEYS[section]
                                for section, keys in cfg.sections.items())


@pytest.mark.parametrize("name, seed", [
    ("catalog-stability", 42), ("catalog-stability", 7),
    ("catalog-stability", 2718),
    ("dsl-intervals-stability", 42), ("dsl-intervals-stability", 7),
    ("dsl-intervals-stability", 2718),
    ("simulate-long", 42),
])
def test_benchmark_workloads_pass_the_benchmark_output_check(tmp_path, name, seed):
    workloads, check = perfbench_modules()
    w = workloads.WORKLOADS[name]
    cfg = write_cfg(tmp_path / "run.cfg", w.config_text(seed))
    code = run(w.command, "--config", cfg, "--out", tmp_path / "out")
    problems, _ = check.check_run(w, seed, code, tmp_path / "out")
    assert problems == []


def test_known_keys_are_the_keys_the_commands_read():
    # every (section, key) literal given to a config reader in cli.py
    readers = {"_get", "_get_number", "_require", "override", "scalar_fn"}
    read = set()
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in readers:
            args = [a.value for a in node.args if isinstance(a, ast.Constant)]
            if len(args) >= 2 and all(isinstance(a, str) for a in args[:2]):
                read.add(tuple(args[:2]))
    assert read == {(section, key) for section, keys in cli.KNOWN_KEYS.items() for key in keys}


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
# Every command reads the solver's march as a stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("case", ["dsl-three-simulate", "dsl-dense-deriv", "dsl-compare",
                                  "catalog-compare", "dsl-stability"])
def test_no_command_builds_a_whole_trajectory(tmp_path, monkeypatch, case):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a command built a FuzzyTrajectory")
    monkeypatch.setattr(FuzzyTrajectory, "__init__", refuse)
    test_golden.test_golden_artifact_hashes(tmp_path, case)  # same exit code and bytes


def compare_V_calls(tmp_path, monkeypatch, config):
    """The times V is called at by a compare run of ``config``, and the times
    of its comparison.csv."""
    calls, call = [], LyapunovFn.__call__
    monkeypatch.setattr(LyapunovFn, "__call__",
                        lambda self, t, u: calls.append(t) or call(self, t, u))
    cfg = write_cfg(tmp_path / "run.cfg", config)
    assert run("compare", "--config", cfg, "--out", tmp_path / "out") == 1
    return calls, [float(r["t"]) for r in read_rows(tmp_path / "out" / "comparison.csv")]


def test_compare_evaluates_V_once_per_point(tmp_path, monkeypatch):
    calls, times = compare_V_calls(tmp_path, monkeypatch, test_golden.DSL_STABILITY)
    # the default r0 reads V(t0, u0), then the march each point's V, the gate
    # reading the first
    assert calls == [times[0], *times]


def test_compare_with_a_given_r0_evaluates_V_only_along_the_march(tmp_path, monkeypatch):
    config = test_golden.DSL_STABILITY.replace("[comparison]", "[comparison]\nr0 = 1")
    calls, times = compare_V_calls(tmp_path, monkeypatch, config)
    assert calls == times


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


@pytest.mark.parametrize("expr", ["2\u00b2", "\u0663"])  # a superscript 2, an Arabic-Indic 3
def test_eval_reads_only_ascii_digits(capsys, expr):
    assert run("eval", expr) == 2
    assert capsys.readouterr().err == \
        f"error: unexpected character {expr[-1]!r} at line 1, column {len(expr)}\n"


def test_a_superscript_digit_in_a_config_expression_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "run.cfg",
                    test_golden.DSL_STABILITY.replace("psi = v", "psi = v * 1\u00b2"))
    assert run("simulate", "--config", cfg, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == "error: unexpected character '\u00b2' at line 1, column 6\n"
    assert not (tmp_path / "out").exists()


def test_eval_division_by_zero_exits_2_with_its_span(capsys):
    assert run("eval", "1/(r-r)", "--r", 3) == 2
    assert capsys.readouterr().err == "error: division by zero at line 1, column 2\n"


@pytest.mark.parametrize("argv, message", [
    (("--fuzzy", "tri(0,1,2)", "--alpha-levels", "0"), "alpha grid needs at least two levels"),
    (("--fuzzy", "tri(0,1,2)", "--alpha-levels", "1"), "alpha grid needs at least two levels"),
    (("t + 1", "--t", "nan"), "--t must be a finite number: nan"),
    (("t + 1", "--t", "inf"), "--t must be a finite number: inf"),
    (("x * r", "--r", "1", "--x=-1e999"), "--x must be a finite number: -inf"),
], ids=["levels-0", "levels-1", "t-nan", "t-inf", "x-overflow"])
def test_eval_reads_its_numbers_as_the_other_commands_do(capsys, argv, message):
    assert run("eval", *argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_eval_fuzzy_literal(capsys):
    assert run("eval", "--fuzzy", "tri(-1,0,1)") == 0
    out = capsys.readouterr().out
    assert out.startswith("alpha=0 [-1, 1]")


# ---------------------------------------------------------------------------
# Import footprint: a command loads only what it runs
# ---------------------------------------------------------------------------

# The optional modules: a command may load only those of them it runs.
OPTIONAL_MODULES = ("fuzzyts.dsl", "fuzzyts.stability", "fuzzyts.comparison", "fuzzyts.draws",
                    "fuzzyts.catalog", "fuzzyts.floatfmt", "logging", "csv", "dataclasses",
                    "numpy.random")
ANALYSIS_MODULES = ("fuzzyts.stability", "fuzzyts.comparison", "fuzzyts.draws", "fuzzyts.catalog")

FOOTPRINT_SCRIPT = f"""
import sys
from fuzzyts.cli import main
code = main(sys.argv[1:])
print(code, *sorted(m for m in {OPTIONAL_MODULES!r} if m in sys.modules))
"""


def fresh_python(*args):
    """Run ``python *args`` in a fresh interpreter that writes no bytecode; its stdout."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    return subprocess.run([sys.executable, *map(str, args)],
                          env=env, capture_output=True, text=True, check=True).stdout


def fresh_cli(*argv):
    """Run ``cli.main(argv)`` in a fresh interpreter: its printed lines, whose
    last is the exit code and the optional modules it loaded."""
    return fresh_python("-c", FOOTPRINT_SCRIPT, *argv).splitlines()


# the optional modules each golden case's command loads, and a catalog
# system's given by flags alone: only a CSV of states loads the formatter
FOOTPRINTS = {
    "catalog-stability": "fuzzyts.catalog fuzzyts.comparison fuzzyts.draws fuzzyts.stability",
    "dsl-stability": "fuzzyts.comparison fuzzyts.draws fuzzyts.dsl fuzzyts.stability",
    "dsl-three-simulate": "fuzzyts.dsl fuzzyts.floatfmt",
    "dsl-three-deriv": "fuzzyts.dsl fuzzyts.floatfmt",
    "catalog-flags-simulate": "fuzzyts.catalog fuzzyts.floatfmt",
    "catalog-flags-deriv": "fuzzyts.catalog fuzzyts.floatfmt",
}


@pytest.mark.parametrize("case", FOOTPRINTS)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, case):
    if case in test_golden.CASES:
        command, config, exit_code, _ = test_golden.CASES[case]
        flags = ("--config", write_cfg(tmp_path / "run.cfg", config))
    else:
        command, exit_code = case.rsplit("-", 1)[1], 0
        flags = ("--system", "example_3_9", "--horizon", "10")
    lines = fresh_cli(command, *flags, "--out", tmp_path / "out")
    assert lines[-1] == f"{exit_code} {FOOTPRINTS[case]}"  # never logging, csv, dataclasses or numpy.random


def test_importing_the_cli_leaves_numpy_random_unloaded():
    # the samplers draw from fuzzyts.draws, so neither set-up nor a run pays for numpy.random
    assert fresh_python("-c", "import sys, fuzzyts.cli; print(sorted(m for m in sys.modules "
                              "if m.startswith('numpy.random')))") == "[]\n"


def test_importing_the_cli_loads_no_analysis_module():
    assert fresh_python("-c", "import sys, fuzzyts.cli; print(sorted(m for m in sys.modules "
                              f"if m in {ANALYSIS_MODULES!r}))") == "[]\n"


def test_eval_in_a_fresh_interpreter_prints_its_value():
    assert fresh_cli("eval", "1+2") == ["3", "0 fuzzyts.dsl"]


# ---------------------------------------------------------------------------
# A command evaluates only what it reads; a system reads every key it is given
# ---------------------------------------------------------------------------

# V divides by t, so V(t0, u0), the default r0, divides by zero
DSL_V_OVER_T = """
[timescale]
scale = integer(10)

[system]
rhs = smul(-0.1, u) fadd smul(0.1, lam)
u0 = tri(-1,0,1)
horizon = 10

[lyapunov]
V = d / t

[stability]
lambda = 1
A = 2
samples = 4
"""


@pytest.mark.parametrize("command, exit_code, artifact", [
    ("simulate", 0, "trajectory.csv"), ("deriv", 0, "derivative.csv"),
    ("compare", 2, None), ("stability", 2, None)])
def test_only_compare_and_stability_evaluate_the_lyapunov_function(tmp_path, capsys, command,
                                                                   exit_code, artifact):
    cfg = write_cfg(tmp_path / "run.cfg", DSL_V_OVER_T)
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == exit_code
    if artifact:
        assert (tmp_path / "out" / artifact).is_file()
    else:
        assert capsys.readouterr().err == "error: division by zero at line 1, column 3\n"


@pytest.mark.parametrize("command", ["compare", "stability"])
@pytest.mark.parametrize("old, new, message", [
    ("horizon = 10", "horizon = 10.5", "horizon 10.5 is not a point of the time scale"),
    ("horizon = 10", "horizon = 10\nswitch_gap = 2",
     "[system] switch_gap is not read by system 'dsl'"),
], ids=["off-scale-horizon", "unread-key"])
def test_a_config_error_is_reported_before_an_error_in_V_at_t0(tmp_path, capsys, command, old,
                                                               new, message):
    # V(t0, u0), the default r0, is evaluated only when the analysis is first read
    cfg = write_cfg(tmp_path / "run.cfg", DSL_V_OVER_T.replace(old, new))
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command", ["simulate", "deriv"])
def test_a_syntax_error_in_an_unread_expression_still_exits_2(tmp_path, capsys, command):
    cfg = write_cfg(tmp_path / "run.cfg", DSL_V_OVER_T.replace("V = d / t", "V = d\n[comparison]\ng = (r +"))
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 2
    assert "column" in capsys.readouterr().err and not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# The comparison system, V and the class-K pair are built when first read
# ---------------------------------------------------------------------------

ANALYSED = {"catalog": test_golden.CATALOG_STABILITY, "dsl": test_golden.DSL_STABILITY}


@pytest.mark.parametrize("config", ANALYSED.values(), ids=ANALYSED)
def test_a_bundle_builds_its_analysis_once_when_first_read(tmp_path, monkeypatch, config):
    built, build = [], stability.build_analysis
    monkeypatch.setattr(stability, "build_analysis",
                        lambda *args: built.append(args) or build(*args))
    calls, call = [], LyapunovFn.__call__
    monkeypatch.setattr(LyapunovFn, "__call__",
                        lambda self, t, u: calls.append(t) or call(self, t, u))
    args = argparse.Namespace(config=write_cfg(tmp_path / "run.cfg", config))
    bundle, _, _ = cli.build_bundle(cli.load_config(args))
    assert built == [] and calls == []
    kpair = bundle.kpair
    assert len(built) == 1 and calls == [0.0]  # the default r0 is V(t0, u0)
    parts = (bundle.comparison, bundle.lyapunov, kpair)
    assert isinstance(parts[0], f.ScalarHybridSystem) and isinstance(parts[1], LyapunovFn)
    assert parts[0].r0 == parts[1](0.0, bundle.system.u0)
    for _ in range(2):
        again = (bundle.comparison, bundle.lyapunov, bundle.kpair)
        assert all(a is b for a, b in zip(again, parts))
    assert len(built) == 1 and calls == [0.0, 0.0]  # the one call above


@pytest.mark.parametrize("command", ["simulate", "deriv"])
@pytest.mark.parametrize("config", ANALYSED.values(), ids=ANALYSED)
def test_simulate_and_deriv_never_build_the_analysis(tmp_path, monkeypatch, command, config):
    def refuse(*args):
        raise AssertionError("the analysis was built")
    monkeypatch.setattr(stability, "build_analysis", refuse)
    cfg = write_cfg(tmp_path / "run.cfg", config)
    assert run(command, "--config", cfg, "--out", tmp_path / "out") == 0


def catalog_config(name="example_3_9", **keys):
    """A catalog config at horizon 10 with the given keys added, per section."""
    sections = {"system": {"name": name, "horizon": 10}}
    for section, added in keys.items():
        sections.setdefault(section, {}).update(added)
    return "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for section, keys in sections.items())


@pytest.mark.parametrize("command, flags, config, named", [
    # a flag sets its key as the config does
    pytest.param("simulate", ["--timescale", "integer(3)"], catalog_config(),
                 "[timescale] scale", id="timescale-flag"),
    # of several unread keys, the first is named
    pytest.param("stability", [], catalog_config(
        "crisp_contraction", system={"rhs": "smul(5, u)", "switch_gap": 2},
        lyapunov={"V": "pow(d, 2)"}, stability={"lambda": 1, "A": 2}),
                 "[system] rhs", id="crisp-rhs-gap-V"),
    pytest.param("simulate", [], catalog_config("crisp_contraction", system={"switch_gap": 2}),
                 "[system] switch_gap", id="crisp-switch_gap"),
    pytest.param("simulate", [], DSL_V_OVER_T.replace("horizon = 10", "horizon = 10\nswitch_gap = 2"),
                 "[system] switch_gap", id="dsl-switch_gap"),
    *(pytest.param("simulate", [], catalog_config(**{section: {key: "x"}}), f"[{section}] {key}",
                   id=f"{section}-{key}") for section, key in cli.CATALOG_UNREAD),
])
def test_a_system_rejects_a_key_it_does_not_read(tmp_path, capsys, command, flags, config, named):
    cfg = write_cfg(tmp_path / "run.cfg", config)
    assert run(command, *flags, "--config", cfg, "--out", tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} is not read by system ") and err.count("\n") == 1


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
    return build_dsl_bundle(cfg, GRID, 100.0).system


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


def test_dsl_stability_run_compiles_nothing_after_the_bundle(tmp_path, monkeypatch):
    built, calls = [], []  # calls: (name, whether build_bundle had returned)
    build_bundle = cli.build_bundle
    for name in ("compile_expr", "eval_scalar"):
        fn = getattr(dsl, name)
        monkeypatch.setattr(dsl, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append((_name, bool(built))) or _fn(*a, **k))

    def build_and_mark(cfg):
        bundle = build_bundle(cfg)
        built.append(1)
        return bundle
    monkeypatch.setattr(cli, "build_bundle", build_and_mark)
    cfg = write_cfg(tmp_path / "run.cfg", test_golden.DSL_STABILITY)
    assert run("stability", "--config", cfg, "--out", tmp_path / "out") == 1
    assert built and ("compile_expr", False) in calls
    assert [call for call in calls if call[1]] == []
