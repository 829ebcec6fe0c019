import dataclasses
import json
import subprocess
import sys

from check import check_run
from conftest import SRC
from workloads import CATALOG_STABILITY, DEFAULT_SEED, SIMULATE_LONG


def write_verdict(out, statuses, witnesses):
    props = {name: {"status": status, "witness": None} for name, status in statuses.items()}
    for name, (t, value, bound) in witnesses.items():
        props[name]["witness"] = {"t": t, "value": value, "bound": bound, "sample": -1}
    out.mkdir(exist_ok=True)
    (out / "verdict.json").write_text(json.dumps({"properties": props}))


def test_golden_verdict_passes(tmp_path):
    w = CATALOG_STABILITY
    write_verdict(tmp_path, w.statuses, w.witnesses)
    problems, digest = check_run(w, DEFAULT_SEED, w.exit_code, tmp_path)
    assert problems == [] and len(digest) == 64


def test_tampered_verdict_is_rejected(tmp_path):
    w = CATALOG_STABILITY
    statuses = dict(w.statuses, practically_stable="holds-on-samples")
    write_verdict(tmp_path, statuses, w.witnesses)
    assert check_run(w, DEFAULT_SEED, w.exit_code, tmp_path)[0]
    assert check_run(w, 7, w.exit_code, tmp_path)[0]

    t, value, bound = w.witnesses["practically_stable"]
    witnesses = dict(w.witnesses, practically_stable=(t, value * (1 + 1e-6), bound))
    write_verdict(tmp_path, w.statuses, witnesses)
    assert check_run(w, DEFAULT_SEED, w.exit_code, tmp_path)[0]
    # witnesses are checked at the default seed only
    assert check_run(w, 7, w.exit_code, tmp_path)[0] == []

    (tmp_path / "verdict.json").write_text("{\"properties\": [")
    assert check_run(w, DEFAULT_SEED, w.exit_code, tmp_path)[0]


def test_wrong_exit_code_or_missing_artifact_is_rejected(tmp_path):
    w = CATALOG_STABILITY
    write_verdict(tmp_path, w.statuses, w.witnesses)
    assert check_run(w, DEFAULT_SEED, 0, tmp_path)[0]
    assert check_run(w, DEFAULT_SEED, w.exit_code, tmp_path / "missing")[0]


def small_trajectory(tmp_path):
    """A real simulate run on a small system, and a workload expecting its output."""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIMULATE_LONG.config.replace("integer(2000)", "integer(12)")
                   .replace("horizon = 2000", "horizon = 12")
                   .replace("switch_times = 0 500 1000 1500", "switch_times = 0 5 10")
                   .replace("alpha_levels = 101", "alpha_levels = 3"))
    out = tmp_path / "out"
    code = subprocess.run([sys.executable, "-m", "fuzzyts.cli", "simulate", "--config", str(cfg),
                           "--out", str(out)], env={"PYTHONPATH": str(SRC)}).returncode
    from fuzzyts.io import load_trajectory_csv

    times, _, values = load_trajectory_csv(out / "trajectory.csv")
    final = tuple((c.lower[0], c.upper[0], c.lower[-1], c.upper[-1]) for c in values[-1])
    w = dataclasses.replace(SIMULATE_LONG, shape=(4, 3), points=13, horizon=12.0, final=final)
    return w, code, out


def test_trajectory_checker_accepts_the_real_format(tmp_path):
    w, code, out = small_trajectory(tmp_path)
    assert check_run(w, DEFAULT_SEED, code, out)[0] == []


def test_truncated_trajectory_is_rejected(tmp_path):
    w, code, out = small_trajectory(tmp_path)
    path = out / "trajectory.csv"
    data = path.read_bytes()
    path.write_bytes(data[:-7])  # cut inside the last row
    assert check_run(w, DEFAULT_SEED, code, out)[0]
    lines = data.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:-1]))  # one whole row missing
    assert check_run(w, DEFAULT_SEED, code, out)[0]


def test_changed_final_state_is_rejected(tmp_path):
    w, code, out = small_trajectory(tmp_path)
    lower, upper, core_lo, core_hi = w.final[0]
    w = dataclasses.replace(w, final=((lower, upper + 1e-6, core_lo, core_hi),) + w.final[1:])
    assert check_run(w, DEFAULT_SEED, code, out)[0]
