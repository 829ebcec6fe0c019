"""Every benchmark workload's set-up step runs on the package as it stands.

``perfbench/child.py setup`` calls ``cli.build_parser``, ``cli.load_config``,
``cli.build_bundle`` and, for ``stability``, ``cli.build_query`` with the
arguments the benchmark gives them, so a change to one of those signatures
fails every benchmark run while the rest of the suite stays green.  This
reads ``perfbench/`` and changes nothing there: the workloads are run from
source and the child writes no bytecode.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def workloads() -> tuple[dict, int]:
    """``perfbench/workloads.py``, run from source so that no bytecode cache
    is written; its dataclasses look their module up in ``sys.modules``."""
    module = sys.modules.setdefault("perfbench_workloads", types.ModuleType("perfbench_workloads"))
    source = PERFBENCH / "workloads.py"
    exec(compile(source.read_text(), str(source), "exec"), module.__dict__)
    return module.WORKLOADS, module.DEFAULT_SEED


WORKLOADS, DEFAULT_SEED = workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_setup_runs_on_every_workload(tmp_path, name):
    w = WORKLOADS[name]
    config, out = tmp_path / "run.cfg", tmp_path / "out"
    config.write_text(w.config_text(DEFAULT_SEED))
    argv = [w.command, "--config", str(config), "--out", str(out)]
    child = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), "setup", str(ROOT / "src"), json.dumps(argv)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert child.returncode == 0, child.stderr
    assert "nominal_s" in json.loads(child.stdout)
    assert not out.exists()
