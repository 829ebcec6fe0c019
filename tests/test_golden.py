"""Golden artifact hashes: refactors must leave these bytes unchanged.

Each case runs the CLI in-process on a pinned config and compares the
SHA-256 of every artifact it names.  A changed hash is a behaviour change;
re-pin it only together with a note saying why the output changed.
"""

import hashlib

import pytest

from fuzzyts.cli import main

# Catalog run: contractive steps fail (skips) and boundary probes are confirmed.
CATALOG_STABILITY = """
[system]
name = example_3_9
horizon = 20

[stability]
lambda = 1
A = 2
samples = 16
shape = triangular
modes = both
seed = 3

[output]
alpha_levels = 5
"""

# DSL run: a gap in the scale, two segments, and a horizon before the last point.
DSL_STABILITY = """
[timescale]
scale = intervals([[0,1],[1.5,2.5]], 0.1)

[system]
rhs = circminus(u) fadd smul(eta(t), lam)
lambda_0 = crisp(0)
lambda_k = u_k
switch_times = 0 1.5
u0 = tri(-1,0,1) | tri(-0.5,0,0.5)
horizon = 2.4

[comparison]
g = (-r + v)/(1 + mu(t))
psi = v

[lyapunov]
V = d
a = x
b = x

[stability]
lambda = 1
A = 2
samples = 6
modes = both
seed = 0

[output]
alpha_levels = 5
"""

CATALOG_COMPARE = """
[system]
name = example_3_9
horizon = 20
mode = expansive

[output]
alpha_levels = 5
"""

CASES = {
    "catalog-stability": ("stability", CATALOG_STABILITY, 1, {
        "verdict.json": "365fa06dd67cca0d88434b5c0503348d53fa35ed356e51c849b40e942420deb2",
    }),
    "dsl-stability": ("stability", DSL_STABILITY, 1, {
        "verdict.json": "9df4781accbe30c6e8c34f90c44bb89219c438cdfb323aa240aa043a5ba2b316",
    }),
    "catalog-compare": ("compare", CATALOG_COMPARE, 0, {
        "trajectory.csv": "24da126164e5e739decdc1169433eb0dd0c9320040f0c295a27c9c039388047c",
        "scalar.csv": "094eb2e70f4c01124b80a04f269d2aa3e9f1b07e2869cda466e7024b0954ae48",
        "comparison.csv": "2b003e3dabaaba89bf2256f97e636851eed76005722834d68bd858bfc36869d5",
    }),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_artifact_hashes(tmp_path, case):
    command, config, exit_code, expected = CASES[case]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == exit_code
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in expected}
    assert got == expected
