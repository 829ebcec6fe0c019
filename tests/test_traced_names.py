"""Every package attribute that the benchmark's tracer wraps still exists.

The tracer (``perfbench/tracer.py``) records a missing target as absent
instead of failing, so a refactor that drops or renames a traced function
would otherwise show only as a metric gone missing.  This reads
``perfbench/`` and changes nothing there.
"""

from importlib import import_module
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_targets() -> list[str]:
    tracer = {"__name__": "perfbench_tracer"}  # run from source: no bytecode cache is written
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), tracer)
    return [target for target, _, _ in tracer["TARGETS"]]


@pytest.mark.parametrize("target", traced_targets())
def test_traced_name_resolves_in_the_package(target):
    module_name, attr = target.split(":")
    owner = import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
