import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"

sys.path[:0] = [str(BENCH), str(SRC)]

# A small stability config that runs in well under a second.
TINY_STABILITY = """\
[system]
name = example_3_9
horizon = 10

[stability]
lambda = 1
A = 2
samples = 3
modes = both
seed = 42
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_STABILITY)
    return path
