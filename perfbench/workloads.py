"""The benchmark's workloads: which CLI command runs on which config, and
what a correct run produces.

The seed given to the benchmark becomes the ``[stability] seed`` of the
config; the program sees nothing else of it.  ``simulate`` draws no random
numbers, so the simulate workload's input is the same at every seed.

Expected outcomes were taken from a seed-42 run of the program at the commit
that added this benchmark.  Exit codes and property statuses hold at every
seed; witnesses and final endpoints are checked at the default seed only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 42

# Relative and absolute tolerance for golden floats: wide enough for a
# reordering of floating-point operations, far too narrow for a changed result.
REL_TOL = 1e-9
ABS_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # fuzzyts subcommand
    config: str  # config text; "{seed}" is replaced by the run's seed
    exit_code: int
    artifact: str  # the artifact checked and hashed for determinism
    shape: tuple[int, int]  # (components n, alpha levels m) of the state
    statuses: dict = field(default_factory=dict)  # property -> status, any seed
    witnesses: dict = field(default_factory=dict)  # property -> (t, value, bound), seed 42
    points: int = 0  # trajectory points (simulate only)
    horizon: float = 0.0
    # per component: (support lower, support upper, core lower, core upper)
    final: tuple = ()

    def config_text(self, seed: int) -> str:
        return self.config.replace("{seed}", str(seed))


_VIOLATED_2 = {
    "practically_stable": "violated",
    "quasi_stable": "not-tested",
    "strongly_stable": "not-tested",
    "asymptotically_stable": "violated",
}

CATALOG_STABILITY = Workload(
    name="catalog-stability",
    command="stability",
    config="""\
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
""",
    exit_code=1,
    artifact="verdict.json",
    shape=(1, 11),
    statuses=_VIOLATED_2,
    witnesses={
        "practically_stable": (2.0, 2.25, 2.0),
        "asymptotically_stable": (2.0, 2.25, 2.0),
    },
)

DSL_INTERVALS_STABILITY = Workload(
    name="dsl-intervals-stability",
    command="stability",
    config="""\
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
""",
    exit_code=1,
    artifact="verdict.json",
    shape=(2, 11),
    statuses=_VIOLATED_2,
    witnesses={
        "practically_stable": (0.75, 2.009327792458134, 2.0),
        "asymptotically_stable": (0.75, 2.009327792458134, 2.0),
    },
)

SIMULATE_LONG = Workload(
    name="simulate-long",
    command="simulate",
    config="""\
[timescale]
scale = integer(2000)

[system]
rhs = smul(-0.001, u) fadd smul(0.001, lam)
lambda_0 = crisp(0)
lambda_k = u_k
switch_times = 0 500 1000 1500
u0 = tri(-1,0,1) | tri(-0.5,0.25,2) | trap(-2,-1,0,1) | tri(0,1,3)
horizon = 2000
mode = expansive

[output]
alpha_levels = 101
""",
    exit_code=0,
    artifact="trajectory.csv",
    shape=(4, 101),
    points=2001,
    horizon=2000.0,
    final=(
        (-19.966663791263176, 19.966663791263176, 0.0, 0.0),
        (-24.50354553043303, 25.413113947724824, 0.15159473621529623, 0.15159473621529623),
        (-30.253185159325167, 29.64680621446399, -10.286521368062179, 9.68014242320099),
        (-29.040427269602876, 30.859564104186404, 0.6063789448611849, 0.6063789448611849),
    ),
)

WORKLOADS = {w.name: w for w in (CATALOG_STABILITY, DSL_INTERVALS_STABILITY, SIMULATE_LONG)}
