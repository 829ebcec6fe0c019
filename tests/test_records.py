"""The records' contract: constructors, immutability, ``replace`` and equality."""

import numpy as np
import pytest

import fuzzyts as f
from fuzzyts import catalog, dsl
from fuzzyts.comparison import MonotonicityReport
from fuzzyts.errors import ConfigError, InvalidShapeError
from fuzzyts.stability import ClassKPair, LyapunovFn, SamplingPlan, StabilityQuery
from fuzzyts.timescale import SwitchSchedule

GRID = f.AlphaGrid.uniform(5)
TS = f.integer(4)
U = f.make_triangle(-1.0, 0.0, 1.0, GRID)

FROZEN = {
    "AlphaGrid": (GRID, "levels"),
    "FuzzyNumber": (U, "lower"),
    "FuzzyVector": (f.vector(U, U), "upper"),
    "TimeScale": (TS, "points"),
    "SwitchSchedule": (SwitchSchedule(TS, (0.0, 2.0)), "times"),
    "RegressiveFn": (f.RegressiveFn(TS, lambda t: 1.0), "name"),
    "LyapunovFn": (LyapunovFn(lambda t, u: f.norm(u)), "lipschitz"),
    "ClassKPair": (ClassKPair(a=abs, b=abs), "a"),
    "SamplingPlan": (SamplingPlan(), "count"),
    "StabilityQuery": (StabilityQuery(lam=1, A=2), "sampling"),
}


@pytest.mark.parametrize("record, name", FROZEN.values(), ids=FROZEN)
def test_frozen_records_reject_setting_and_deleting_a_field(record, name):
    value = getattr(record, name)
    with pytest.raises(AttributeError, match="is frozen"):
        setattr(record, name, None)
    with pytest.raises(AttributeError, match="is frozen"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown_field = 1
    assert getattr(record, name) is value


def test_records_take_keywords_and_fill_in_their_defaults():
    q = StabilityQuery(lam=1, A=2)
    assert q.sampling.count == 200 and (q.sampling.seed, q.sampling.family) == (0, "triangular")
    assert (q.B, q.T0, q.rho) == (None, None, 100.0)
    assert StabilityQuery(lam=1, A=2).sampling is not q.sampling
    assert StabilityQuery(1, 2, 0.5, 3.0, 10.0, SamplingPlan(8, 4, "crisp")).sampling.count == 8
    ts = f.TimeScale(points=[0.0, 1.0, 3.0])
    assert (ts.dense_threshold, ts.kind, ts.graininess.tolist()) == (1e-6, "explicit", [1.0, 2.0])
    assert LyapunovFn(fn=abs).lipschitz is None
    traj = f.FuzzyTrajectory(ts=TS, values=[f.vector(U)])
    assert (traj.segments, traj.rows, traj.failures) == (None, None, {})
    assert f.FuzzyTrajectory(TS, [f.vector(U)]).failures is not traj.failures
    assert not f.ScalarTrajectory(TS, np.zeros(2), np.zeros(2)).approximate_maximality


def test_constructors_keep_their_checks():
    with pytest.raises(ConfigError, match="need 0 < lambda <= A, got lambda=3, A=2"):
        StabilityQuery(lam=3, A=2)
    with pytest.raises(ConfigError, match="unknown sampling family 'box'"):
        SamplingPlan(family="box")
    with pytest.raises(InvalidShapeError, match="dense_threshold must be positive"):
        f.TimeScale([0.0, 1.0], dense_threshold=0.0)
    with pytest.raises(InvalidShapeError, match="the first switch time must be the initial point"):
        SwitchSchedule(TS, (1.0,))
    with pytest.raises(f.NonRegressiveError, match="1 \\+ mu\\*q vanishes at t=0.0"):
        f.RegressiveFn(TS, lambda t: -1.0, name="q")


def test_envs_do_not_share_their_dicts():
    first, second = dsl.Env(), dsl.Env()
    first.scalars["t"] = 1.0
    first.fuzzies["u"] = U
    assert (second.scalars, second.fuzzies, second.ts, second.grid) == ({}, {}, None, None)


def test_replace_builds_and_checks_a_new_record():
    b = catalog.make_example_3_9(GRID, 10.0)
    sys = b.system
    moved = sys.replace(rho=50.0)
    assert (moved.rho, sys.rho) == (50.0, 100.0)
    assert moved.u0 is sys.u0 and moved.switch_times == sys.switch_times
    assert moved.schedule is not sys.schedule  # built again
    with pytest.raises(InvalidShapeError, match="outside the validity ball"):
        sys.replace(u0=f.vector(f.crisp(200.0, GRID)))
    with pytest.raises(TypeError):
        sys.replace(schedule=sys.schedule)  # not a constructor argument
    with pytest.raises(InvalidShapeError, match="r0 must be nonnegative"):
        b.comparison.replace(r0=-1.0)
    traj = f.solve(sys, horizon=3.0)
    with pytest.raises(ValueError, match="at least one value"):
        traj.replace(values=[])
    shorter = traj.replace(values=traj.values[:2])
    assert len(shorter) == 2 and shorter.segments is traj.segments and len(traj) == 4
    scalar = f.solve_comparison(b.comparison, horizon=3.0)
    assert scalar.replace(values=scalar.values * 2).segments is scalar.segments


def test_monotonicity_reports_compare_field_by_field():
    report = MonotonicityReport(4, 1, (0.0, 1.0), [], [(0.5, 0.1, 0.2, -1.0)], [])
    assert report == MonotonicityReport(4, 1, (0.0, 1.0), [], [(0.5, 0.1, 0.2, -1.0)], [])
    assert report != MonotonicityReport(4, 2, (0.0, 1.0), [], [(0.5, 0.1, 0.2, -1.0)], [])
    assert report != MonotonicityReport(4, 1, (0.0, 1.0), [], [], [])
    assert report != report.to_dict()


def test_verdict_to_dict_gives_every_field_unchanged():
    fields = {name: {name: 1} for name in ("properties", "hypothesis_report",
                                           "comparison_verdict", "implied_conclusions",
                                           "consistency", "metadata")}
    verdict = f.Verdict(**fields)
    out = verdict.to_dict()
    assert list(out) == list(fields)
    assert all(out[name] is fields[name] for name in fields)
