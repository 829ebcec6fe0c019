"""Golden artifact hashes: refactors must leave these bytes unchanged.

Each case runs the CLI in-process on a pinned config and compares the
SHA-256 of every artifact it names.  A changed hash is a behaviour change;
re-pin it only together with a note saying why the output changed.
"""

import hashlib
import json

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

# The benchmark's stability workloads (perfbench/workloads.py), copied: the
# expansive example_3_9 stack at 200 samples to t=50, and a two-component DSL
# system on a scale with a gap.  Their verdicts are pinned at two seeds.
BENCH_CATALOG_STABILITY = """\
[system]
name = example_3_9
horizon = 50

[stability]
lambda = 1
A = 2
samples = 200
shape = triangular
modes = both
seed = {seed}

[output]
alpha_levels = 11
"""

BENCH_DSL_INTERVALS_STABILITY = """\
[timescale]
scale = intervals([[0,2],[3,5]], 0.05)

[system]
rhs = circminus(u) fadd smul(eta(t), lam)
lambda_0 = crisp(0)
lambda_k = u_k
switch_times = 0 3
u0 = tri(-1,0,1) | tri(-0.5,0,0.5)
horizon = 5

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
samples = 50
modes = expansive
seed = {seed}

[output]
alpha_levels = 11
"""

# A stability verdict depends on the draw scheme (one counter-based stream per
# sampled layer, sample i as row i of one uniform array) where it holds a value
# that depends on the draws: a margin, an estimate or a skipped sample.
CASES = {
    "catalog-stability": ("stability", CATALOG_STABILITY, 1, {
        "verdict.json": "365fa06dd67cca0d88434b5c0503348d53fa35ed356e51c849b40e942420deb2",
    }),
    "catalog-mixed-stability": ("stability", CATALOG_MIXED_STABILITY, 1, {
        "verdict.json": "b468deeb947f74cda2719db942299ddb9edc4da122842bb2e2073e152f0caec8",
    }),
    "dsl-stability": ("stability", DSL_STABILITY, 1, {
        "verdict.json": "b99584d9d6f781ac3f81e3207f5c38ee2019566127c4660faf93152c0255eedb",
    }),
    "dsl-dense-stability": ("stability", DSL_DENSE_STABILITY, 0, {
        "verdict.json": "ed2a90fe9e3a882b71a92b2584b8a0f7a4006f91dbb2a7a2d4bd7ddba29111d6",
    }),
    "dsl-builtins-stability": ("stability", DSL_BUILTINS_STABILITY, 1, {
        "verdict.json": "9abfd02ef029b924222ce63c4b37d99d8bc8faf7226e959d1af5ba4469895c58",
    }),
    "dsl-ghsub-stability": ("stability", DSL_GHSUB_STABILITY, 0, {
        "verdict.json": "cacd84bb862132baf4f7d6a06d36594e2ac3fbbab241d65b57c1ee1cf1421249",
    }),
    "catalog-quasi-stability": ("stability", CATALOG_QUASI_STABILITY, 1, {
        "verdict.json": "7d0660209bbe78c679c25ffdb923402bc6ffb2f21feb99504749c02a6fedb410",
    }),
    **{f"bench-{name}-seed-{seed}": ("stability", config.replace("{seed}", str(seed)), 1, {
        "verdict.json": digest,
    }) for name, config, seed, digest in (
        ("catalog-stability", BENCH_CATALOG_STABILITY, 42,
         "31677b0acb7937db3d480b7285ce7576c981d9498d65650c7505c3d214617fbe"),
        ("catalog-stability", BENCH_CATALOG_STABILITY, 7,
         "41ebecb6ffad97f59ab57d79e64b29cb667d99273bce4e84861abda5743278e2"),
        ("dsl-intervals-stability", BENCH_DSL_INTERVALS_STABILITY, 42,
         "4660a6ebca0ee1399e4a4a4b919feaecbeb72206c79c7c39406f5ab4463b1ef0"),
        ("dsl-intervals-stability", BENCH_DSL_INTERVALS_STABILITY, 7,
         "db4b352af0cfcad39c00084d1ab4b26607ec93d52b665efff2fa574871ecd749"),
    )},
    "dsl-three-simulate": ("simulate", DSL_THREE_COMPONENTS, 0, {
        "trajectory.csv": "1c096ad59d41e8b28f748607b558766c39273589655e31a05e60db972e8702f8",
    }),
    "dsl-three-deriv": ("deriv", DSL_THREE_COMPONENTS, 0, {
        "derivative.csv": "a8682d60f365de3a33ea1187deff514096ff2bad225033ee619da1960f25eff7",
    }),
    # the right-dense scale takes the backward-quotient branch; at the switch
    # the two quotients disagree, and that point writes no row
    "dsl-dense-deriv": ("deriv", DSL_DENSE_STABILITY, 0, {
        "derivative.csv": "6c6cbfb561d87fe11dca02376643991259be07cf7de2fa9c02bb01c04fcb753d",
    }),
    # a scale with a gap: V exceeds r at 20 of the 21 points
    "dsl-compare": ("compare", DSL_STABILITY, 1, {
        "trajectory.csv": "b1df26f0cc8b88bda26aee49d2ff36e4fe593fd73eae179f6ee48ef8c9d4854c",
        "scalar.csv": "f7a7d9da7f1b838fcac9532d5395043908f6c1c793398ac1b7c9a21b42ae8801",
        "comparison.csv": "46d49e167b83f1e57e0772ef9864ef6b9f578ab65aa5425712f1296e5ab17847",
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
    if command == "stability":  # the hypotheses pass only where each of the six checks does
        report = json.loads((out / "verdict.json").read_text())["hypothesis_report"]
        entries = ("class_k", "gate_a_lambda_lt_b_A", "sandwich", "lipschitz", "monotonicity",
                   "condition_ii")
        assert sorted(report) == sorted([*entries, "all_passed"])
        assert report["all_passed"] is all(report[name]["passed"] for name in entries)
