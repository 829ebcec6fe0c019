"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value is produced by the independent oracles in
oracles.py or frozen from hand calculations.
"""

import json
import time

import numpy as np
import pytest

import fuzzyts as f
from fuzzyts import catalog
from fuzzyts.cli import main as cli_main
from fuzzyts.errors import GHDifferenceError
from fuzzyts.hukuhara import FuzzyTrajectory, delta_h_derivative
from fuzzyts.hybrid import HybridFuzzySystem, StepMode, solve
from fuzzyts.stability import (
    SamplingPlan,
    StabilityQuery,
    check_practical_stability,
    sample_initial_state,
    verify_comparison_bound,
)

import oracles

GRID = f.AlphaGrid.uniform(11)
TOL = 1e-12


def report(n, message):
    print(f"CRITERION {n} PASS: {message}")


def random_fuzzy(rng, span=5.0):
    lower, upper = oracles.random_cuts(rng, GRID.m, span)
    return f.FuzzyNumber(GRID, lower, upper)


def test_criterion_1_metric_axioms_and_structure():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    checked = 0
    for _ in range(1000):
        u, v, w = (random_fuzzy(rng) for _ in range(3))
        k = float(rng.uniform(-5, 5))
        assert f.dist(u, u) <= TOL
        assert abs(f.dist(u, v) - f.dist(v, u)) <= TOL
        assert f.dist(u, w) <= f.dist(u, v) + f.dist(v, w) + TOL
        assert abs(f.dist(f.add(u, w), f.add(v, w)) - f.dist(u, v)) <= TOL
        assert abs(f.dist(f.scale(k, u), f.scale(k, v)) - abs(k) * f.dist(u, v)) <= TOL * 50
        assert f.dist(f.add(u, v), f.add(w, w)) <= f.dist(u, w) + f.dist(v, w) + TOL
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked == 1000
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, f"metric axioms and structure on 1000 random triples in {elapsed:.2f}s")


def test_criterion_2_gh_round_trip():
    # independent random shapes essentially never admit the difference, so
    # draw pairs with a difference built in: u = v + w or v = u + (-1)w
    rng = np.random.default_rng(2002)
    for trial in range(1000):
        base, offset = random_fuzzy(rng), random_fuzzy(rng)
        if trial % 2 == 0:
            u, v = f.add(base, offset), base
        else:
            u, v = base, f.add(base, offset)
        w = f.gh_difference(u, v)  # must exist
        assert oracles.gh_roundtrip_ok(u.to_records(), v.to_records(), w.to_records())
    flat = f.FuzzyNumber(GRID, np.full(11, 0.0), np.full(11, 1.0))
    with pytest.raises(GHDifferenceError):
        f.gh_difference(flat, f.make_triangle(0, 0.5, 1, GRID))
    report(2, "round trip held on 1000 pairs with existing differences; "
              "constructed non-existence rejected")


def test_criterion_3_scattered_derivative_exactness():
    rng = np.random.default_rng(3003)
    for ts in (f.integer(12), f.qscale(1.0, 2.0, 10)):
        # fuzzy trajectory built by accumulation so the differences exist
        values = [f.vector(random_fuzzy(rng, span=1.0))]
        for _ in range(len(ts) - 1):
            values.append(f.add(values[-1], f.vector(random_fuzzy(rng, span=1.0))))
        traj = FuzzyTrajectory(ts, values)
        for i, t in enumerate(ts.kappa_points()):
            t = float(t)
            mu = ts.mu(t)
            d = delta_h_derivative(traj, t)
            assert d is not None
            dlo = (values[i + 1][0].lower - values[i][0].lower) / mu
            dhi = (values[i + 1][0].upper - values[i][0].upper) / mu
            assert np.max(np.abs(d[0].lower - np.minimum(dlo, dhi))) <= TOL
            assert np.max(np.abs(d[0].upper - np.maximum(dlo, dhi))) <= TOL
        # crisp reduction against the scalar delta derivative
        g = lambda s: 0.3 * s * s - 2.0 * s + 1.0
        crisp_traj = FuzzyTrajectory(ts, [f.vector(f.crisp(g(float(t)), GRID))
                                          for t in ts.points])
        for t in ts.kappa_points():
            t = float(t)
            d = delta_h_derivative(crisp_traj, t)
            assert d[0].crisp_value() == pytest.approx(
                ts.delta_derivative(g, t), abs=TOL)
    report(3, "derivative quotient exact at every right-scattered point on the "
              "integer and geometric scales; crisp reduction matches")


def test_criterion_4_catalog_reproduction_and_bound():
    started = time.perf_counter()
    horizon = 50.0
    bundle = catalog.make_example_3_9(GRID, horizon, r0=1.0)
    traj = solve(bundle.system, StepMode.EXPANSIVE, horizon=horizon)
    scalar = f.solve_comparison(bundle.comparison, horizon=horizon)
    V = bundle.lyapunov
    v_seq = [V(float(t), traj.values[i]) for i, t in enumerate(traj.times)]
    assert v_seq[:3] == pytest.approx([1.0, 1.5, 2.25], abs=TOL)
    assert [float(x) for x in scalar.values[:3]] == pytest.approx([1.0, 2.0, 3.5], abs=TOL)

    rng_targets = np.random.default_rng(4004)
    violations = 0
    for i in range(100):
        target = float(rng_targets.uniform(0.0, 1.0))
        u0 = sample_initial_state(np.random.default_rng([4004, i]), GRID, 1,
                                  "triangular", target)
        assert f.norm(u0) <= 1.0 + TOL
        sys_i = bundle.system.replace(u0=u0)
        traj_i = solve(sys_i, StepMode.EXPANSIVE, horizon=horizon)
        rep = verify_comparison_bound(V, traj_i, scalar, tol=1e-9)
        assert rep.precondition_ok
        violations += len(rep.violations)
    elapsed = time.perf_counter() - started
    assert violations == 0
    assert elapsed < 30.0, f"criterion 4 took {elapsed:.2f}s"
    report(4, f"catalog sequences reproduced; bound held for 100 seeded starts "
              f"to t=50 in {elapsed:.2f}s")


def test_criterion_5_crisp_equivalence_oracle():
    rng = np.random.default_rng(5005)
    for trial in range(50):
        n_switch = int(rng.integers(1, 4))
        gap = int(rng.integers(2, 5))
        horizon = n_switch * gap + int(rng.integers(1, 5))
        ts = f.integer(horizon)
        switch_times = tuple(float(k * gap) for k in range(n_switch))
        a, b, c = rng.uniform(-0.7, 0.7, 3)
        d0, d1 = rng.uniform(-1.0, 1.0, 2)
        x0 = float(rng.uniform(-2.0, 2.0))

        def rhs(t, u, lam):
            return f.vector(f.crisp(a * u[0].crisp_value()
                                    + b * lam[0].crisp_value() + c, GRID))

        def switch(t_k, u_k):
            return f.vector(f.crisp(d0 * u_k[0].crisp_value() + d1, GRID))

        sys = HybridFuzzySystem(ts, switch_times, rhs, (switch,) * n_switch,
                                rho=1e9, u0=f.vector(f.crisp(x0, GRID)))
        traj = solve(sys, horizon=float(horizon))
        expected = oracles.hybrid_euler_crisp(
            ts.points, list(switch_times),
            lambda t, x, l: a * x + b * l + c,
            [lambda tk, xk: d0 * xk + d1] * n_switch, x0)
        for i, x in enumerate(expected):
            assert traj.values[i][0].crisp_value() == pytest.approx(x, abs=TOL)
    report(5, "fuzzy solver matched the plain Euler oracle on 50 random crisp "
              "switched systems")


def test_criterion_6_checker_soundness(tmp_path):
    crisp_cfg = tmp_path / "crisp.cfg"
    crisp_cfg.write_text("""
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
samples = 200
seed = 6006
shape = crisp
""")
    out1 = tmp_path / "crisp_out"
    code = cli_main(["stability", "--config", str(crisp_cfg), "--out", str(out1)])
    assert code == 0
    verdict = json.loads((out1 / "verdict.json").read_text())
    for prop in ("practically_stable", "quasi_stable", "strongly_stable",
                 "asymptotically_stable"):
        assert verdict["properties"][prop]["status"] == "holds-on-samples"

    example_cfg = tmp_path / "example.cfg"
    example_cfg.write_text("""
[system]
name = example_3_9
u0 = tri(-1,0,1)
mode = expansive
horizon = 10

[stability]
lambda = 1
A = 2
samples = 200
seed = 6006
shape = triangular
modes = expansive
""")
    out2 = tmp_path / "example_out"
    code = cli_main(["stability", "--config", str(example_cfg), "--out", str(out2)])
    assert code == 1
    verdict = json.loads((out2 / "verdict.json").read_text())
    witness = verdict["properties"]["practically_stable"]["witness"]
    assert witness["t"] == 2.0
    assert witness["value"] == pytest.approx(2.25, abs=TOL)
    report(6, "crisp contraction holds on 200 samples (exit 0); expansive "
              "catalog run witnessed at t=2 with distance 2.25 (exit 1)")


def test_criterion_7_consistency_meta_property():
    queries = {
        "crisp_contraction": [
            StabilityQuery(lam=1.0, A=1.0, B=0.1, T0=4.0, rho=100.0,
                           sampling=SamplingPlan(80, 7007, "crisp")),
            StabilityQuery(lam=0.5, A=1.0, B=0.2, T0=2.0, rho=100.0,
                           sampling=SamplingPlan(80, 7008, "crisp")),
            StabilityQuery(lam=0.25, A=2.0, rho=100.0,
                           sampling=SamplingPlan(80, 7009, "triangular")),
        ],
        "example_3_9": [
            StabilityQuery(lam=1.0, A=2.0, rho=100.0,
                           sampling=SamplingPlan(80, 7010, "triangular")),
            StabilityQuery(lam=0.5, A=4.0, B=5.0, T0=3.0, rho=100.0,
                           sampling=SamplingPlan(80, 7011, "trapezoid")),
            StabilityQuery(lam=2.0, A=3.0, rho=100.0,
                           sampling=SamplingPlan(80, 7012, "crisp")),
        ],
    }
    runs = 0
    for name, qs in queries.items():
        for q in qs:
            bundle = catalog.build(name, GRID, 10.0)
            verdict = check_practical_stability(
                bundle.system, bundle.comparison, bundle.lyapunov, bundle.kpair,
                q, 10.0)
            assert not verdict.consistency["inconsistent"], (
                f"{name} with lam={q.lam}, A={q.A}: hypothesis and comparison "
                "layers passed while the direct test failed")
            runs += 1
    report(7, f"no hypothesis-pass/comparison-pass/direct-fail run among "
              f"{runs} catalog checks")


def test_criterion_8_regressive_algebra():
    rng = np.random.default_rng(8008)
    scales = (f.integer(10), f.qscale(1.0, 2.0, 8), f.uniform(0.0, 0.25, 12))
    pairs = 0
    for ts in scales:
        mu_max = max(ts.mu(float(t)) for t in ts.kappa_points())
        bound = 0.9 / (1.0 + mu_max)
        for _ in range(100):
            ptab = {float(t): float(rng.uniform(-bound, bound)) for t in ts.points}
            qtab = {float(t): float(rng.uniform(-bound, bound)) for t in ts.points}
            p = f.RegressiveFn(ts, lambda t: ptab[float(t)], "p")
            q = f.RegressiveFn(ts, lambda t: qtab[float(t)], "q")
            plus = f.circle_plus(p, q)
            self_minus = f.circle_minus(p, p)
            minus_one = f.ominus(f.constant(ts, 1.0))
            mixed = f.circle_plus(p, f.ominus(q))
            direct = f.circle_minus(p, q)
            for t in ts.kappa_points():
                t = float(t)
                mu = ts.mu(t)
                assert plus(t) == pytest.approx(p(t) + q(t) + mu * p(t) * q(t), abs=TOL)
                assert self_minus(t) == pytest.approx(0.0, abs=TOL)
                assert minus_one(t) == pytest.approx(-1.0 / (1.0 + mu), abs=TOL)
                assert mixed(t) == pytest.approx(direct(t), abs=TOL)
            pairs += 1
    assert pairs == 300
    report(8, "circle algebra identities held pointwise for 100 random pairs "
              "on each of three scales")


def test_criterion_9_verdict_determinism(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text("""
[system]
name = example_3_9
u0 = tri(-1,0,1)
mode = expansive
horizon = 10

[stability]
lambda = 1
A = 2
B = 3
T0 = 4
samples = 150
seed = 90909
shape = triangular
modes = both
""")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(["stability", "--config", str(cfg), "--out", str(out1)]) == \
        cli_main(["stability", "--config", str(cfg), "--out", str(out2)])
    b1 = (out1 / "verdict.json").read_bytes()
    b2 = (out2 / "verdict.json").read_bytes()
    assert b1 == b2
    report(9, f"two identical runs produced byte-identical verdict.json "
              f"({len(b1)} bytes)")
