import json
import re
import subprocess
import sys

import tracer
from conftest import BENCH, ROOT, SRC

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_names_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_per_layer_metrics_match_the_tracer():
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert declared == tracer.UNITS


def test_traced_run_emits_well_formed_names(tiny_config, tmp_path):
    out = tmp_path / "trace.json"
    argv = ["stability", "--config", str(tiny_config), "--out", str(tmp_path / "out")]
    code = subprocess.run([sys.executable, str(BENCH / "child.py"), "trace", str(SRC),
                           json.dumps(argv), str(out)]).returncode
    assert code == 1  # example_3_9 is not practically stable
    trace = json.loads(out.read_text())
    assert trace["absent"] == {}
    assert trace["peak_rss_mb"] > 0
    metrics = trace["metrics"]
    # with every target wrapped, every metric the tracer computes is reported
    assert {name: m["unit"] for name, m in metrics.items()} == {
        name: unit for name, (unit, _, _) in tracer.METRICS.items()}
    assert metrics["hybrid.solve.calls"]["value"] > 0
    assert metrics["dsl.eval_fuzzy.nodes"]["value"] == 0


def test_untraced_run_never_loads_the_tracer(tiny_config, tmp_path):
    script = (
        "import sys, child\n"
        f"code = child.run(['stability', '--config', {str(tiny_config)!r}, '--out', {str(tmp_path)!r}],\n"
        f"                 {str(tmp_path / 'report.json')!r})\n"
        "import fuzzyts.hybrid\n"
        "assert code == 1\n"
        "assert 'tracer' not in sys.modules\n"
        "assert not hasattr(fuzzyts.hybrid.solve, '__wrapped__')\n"
    )
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={"PYTHONPATH": f"{BENCH}:{SRC}"})
