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

# DSL run on a right-dense scale: condition (ii) takes the dense branch of
# the upper Dini estimate (sampled quotients beyond sigma(t)).
DSL_DENSE_STABILITY = DSL_STABILITY.replace(
    "scale = intervals([[0,1],[1.5,2.5]], 0.1)",
    "scale = intervals([[0,1e-6],[5e-6,1e-5]], 1e-7)",
).replace("switch_times = 0 1.5", "switch_times = 0 5e-6").replace(
    "horizon = 2.4", "horizon = 9e-6").replace("samples = 6", "samples = 4")

# DSL run whose comparison data use every scalar builtin: the comparison
# grid grows past b(A) from its upper starts, each at its own instant, and
# fails the tail bound.
DSL_BUILTINS_STABILITY = DSL_STABILITY.replace(
    "g = (-r + v)/(1 + mu(t))\npsi = v",
    "g = (pow(r, 2) - r + max(min(v, r), 0) * eta(t)) / (sigma(t) - t + 1 + mu(t))\n"
    "psi = min(abs(v), 1 + pow(v, 2))").replace(
    "V = d", "V = max(d, pow(d, 2))").replace(
    "a = x\nb = x", "a = max(x, pow(x, 2))\nb = min(x, pow(x, 2)) / 2").replace(
    "A = 2", "A = 3\nB = 0.5\nT0 = 1")

# DSL run whose gH difference fails inside the right-hand side for some
# states only: expansive samples leave the stack at several instants, from
# t = 0 on, while the others carry on; contractive steps fail too.
DSL_GHSUB_STABILITY = DSL_STABILITY.replace(
    "intervals([[0,1],[1.5,2.5]], 0.1)", "intervals([[0,1],[1.5,2.5]], 0.25)").replace(
    "rhs = circminus(u) fadd smul(eta(t), lam)",
    "rhs = ghsub(smul(0.5, u), lam) fadd crisp(0.1)").replace(
    "lambda_0 = crisp(0)", "lambda_0 = trap(-0.5,-0.2,0.2,0.5)").replace(
    "horizon = 2.4", "horizon = 2.5").replace(
    "samples = 6", "samples = 20\nshape = trapezoid")

# Catalog run with a tail bound: quasi and strong stability are tested, and
# the strong witness is the earlier (stable) one of its two parts.
CATALOG_QUASI_STABILITY = """
[system]
name = example_3_9
horizon = 20

[stability]
lambda = 1
A = 2
B = 0.5
T0 = 5
samples = 16
shape = trapezoid
modes = expansive
seed = 5

[output]
alpha_levels = 5
"""

# Three-component DSL system: ghsub, a literal summand, a crisp lambda_0 and a
# lambda_k that adds a literal to the switch state.
DSL_THREE_COMPONENTS = """
[timescale]
scale = intervals([[0,1],[1.5,2.5]], 0.1)

[system]
rhs = ghsub(smul(-0.5, u), smul(0.25, u)) fadd smul(eta(t), lam) fadd crisp(0.1)
lambda_0 = crisp(0.25)
lambda_k = u_k fadd trap(0,0.1,0.2,0.3)
switch_times = 0 1.5
u0 = tri(-1,0,1) | trap(-2,-1,0,1) | crisp(0.5)
horizon = 2.5
mode = expansive

[output]
alpha_levels = 5
"""

# Catalog run at the premise boundary lambda = A: in one contractive stack
# sixteen samples fail at t=5 while the probe reaches the horizon, and the
# probe grazes A at t0 in both modes.
CATALOG_MIXED_STABILITY = CATALOG_STABILITY.replace("horizon = 20", "horizon = 6").replace(
    "lambda = 1", "lambda = 2")

CATALOG_COMPARE = """
[system]
name = example_3_9
horizon = 20
mode = expansive

[output]
alpha_levels = 5
"""

# Catalog compare run from a triangle whose core comes in with rounding slack
# (its lower endpoint rounds above its upper one by 5.6e-17).  The state is
# stored exact, so the expansive run has no slack to grow and reaches t=30;
# a state that kept the slack grows it past ATOL in the step from t=19.
CATALOG_COMPARE_SLACK = """
[system]
name = example_3_9
horizon = 30
u0 = tri(-0.3,0.1,0.9)
"""

CASES = {
    "catalog-stability": ("stability", CATALOG_STABILITY, 1, {
        "verdict.json": "365fa06dd67cca0d88434b5c0503348d53fa35ed356e51c849b40e942420deb2",
    }),
    "catalog-mixed-stability": ("stability", CATALOG_MIXED_STABILITY, 1, {
        "verdict.json": "b468deeb947f74cda2719db942299ddb9edc4da122842bb2e2073e152f0caec8",
    }),
    "dsl-stability": ("stability", DSL_STABILITY, 1, {
        "verdict.json": "9df4781accbe30c6e8c34f90c44bb89219c438cdfb323aa240aa043a5ba2b316",
    }),
    "dsl-dense-stability": ("stability", DSL_DENSE_STABILITY, 0, {
        "verdict.json": "ed2a90fe9e3a882b71a92b2584b8a0f7a4006f91dbb2a7a2d4bd7ddba29111d6",
    }),
    "dsl-builtins-stability": ("stability", DSL_BUILTINS_STABILITY, 1, {
        "verdict.json": "ad135654a54ceaa1df3ef5c77c50f96217b7d9a6fa2cfb73d1a29c87753a2d18",
    }),
    "dsl-ghsub-stability": ("stability", DSL_GHSUB_STABILITY, 0, {
        "verdict.json": "bc01acae7aec1332da698eb76695c224a7aa2d541ca732b2868f85c389bddacf",
    }),
    "catalog-quasi-stability": ("stability", CATALOG_QUASI_STABILITY, 1, {
        "verdict.json": "7d0660209bbe78c679c25ffdb923402bc6ffb2f21feb99504749c02a6fedb410",
    }),
    "dsl-three-simulate": ("simulate", DSL_THREE_COMPONENTS, 0, {
        "trajectory.csv": "1c096ad59d41e8b28f748607b558766c39273589655e31a05e60db972e8702f8",
    }),
    "dsl-three-deriv": ("deriv", DSL_THREE_COMPONENTS, 0, {
        "derivative.csv": "a8682d60f365de3a33ea1187deff514096ff2bad225033ee619da1960f25eff7",
    }),
    "catalog-compare": ("compare", CATALOG_COMPARE, 0, {
        "trajectory.csv": "24da126164e5e739decdc1169433eb0dd0c9320040f0c295a27c9c039388047c",
        "scalar.csv": "094eb2e70f4c01124b80a04f269d2aa3e9f1b07e2869cda466e7024b0954ae48",
        "comparison.csv": "2b003e3dabaaba89bf2256f97e636851eed76005722834d68bd858bfc36869d5",
    }),
    "catalog-compare-slack": ("compare", CATALOG_COMPARE_SLACK, 0, {
        "trajectory.csv": "0a9aadfe92bfb46afcda1b4c154ddf707a1d885f9e6611a1565c474d7f7585ea",
        "scalar.csv": "57c71569835bc84b067028fb042753bb63e22ac15ed981d1a7b22b2ec0d2ad6f",
        "comparison.csv": "5405a9dd965b3bc431652c9e36d72687b8d7a2d97412690082940d9a335d3cb1",
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
