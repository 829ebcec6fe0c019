"""Artifact writers: byte-identical to csv.writer output, and cheap in writes.

The reference writers below are the csv.writer implementations the
formatted writers replaced; the formatted ones must produce the same bytes.
"""

import csv
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import fuzzyts as f
from fuzzyts import catalog, floatfmt, hybrid, io as ftio
from fuzzyts.cli import RunConfig, build_dsl_bundle
from fuzzyts.hukuhara import FuzzyTrajectory

_FLOAT_FORMAT = ".17g"


def _state_rows(head, value, alphas):
    return [[*head, c, alpha, format(lo, _FLOAT_FORMAT), format(hi, _FLOAT_FORMAT)]
            for c, (lows, highs) in enumerate(zip(value.lower.tolist(), value.upper.tolist()))
            for alpha, lo, hi in zip(alphas, lows, highs)]


def _alpha_strings(grid):
    return [format(a, _FLOAT_FORMAT) for a in grid.levels.tolist()]


def reference_write_trajectory_csv(path, traj):
    alphas = _alpha_strings(traj.values[0].grid)
    segments = traj.segments if traj.segments is not None else [0] * len(traj)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ftio.TRAJECTORY_HEADER)
        for t, seg, value in zip(traj.times.tolist(), segments, traj.values):
            writer.writerows(_state_rows([format(t, _FLOAT_FORMAT), seg], value, alphas))


def reference_write_derivative_csv(path, entries):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ftio.DERIVATIVE_HEADER)
        alphas = None
        for t, deriv in entries:
            if deriv is None:
                continue
            if alphas is None:
                alphas = _alpha_strings(deriv.grid)
            writer.writerows(_state_rows([format(float(t), _FLOAT_FORMAT)], deriv, alphas))


# Floats whose formatting is easy to get wrong: signed zero, the smallest
# subnormal, the extremes, an integral value (written "2"), and each edge of
# the window that floatfmt formats in numpy (1e-4 <= |x| < 1e16) with its
# neighbour doubles.
WINDOW_EDGES = [1e-4, np.nextafter(1e-4, 0), np.nextafter(1e-4, 1), 1e16, np.nextafter(1e16, 0),
                np.nextafter(1e16, np.inf)]
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, 0.1, -1 / 3, *map(float, WINDOW_EDGES)]
# so that a state straddles the window: tiny, moderate and huge endpoints
endpoints = (st.sampled_from(SPECIAL) | st.floats(-1e6, 1e6) | st.floats(-1e-3, 1e-3)
             | st.floats(-1e18, 1e18))


@st.composite
def states(draw, grid, n):
    """A valid (n, m) state: each component's 2m sorted draws give its
    lower endpoints (ascending) and upper endpoints (descending)."""
    lower, upper = [], []
    for _ in range(n):
        ends = sorted(draw(st.lists(endpoints, min_size=2 * grid.m, max_size=2 * grid.m)))
        lower.append(ends[:grid.m])
        upper.append(ends[grid.m:][::-1])
    with np.errstate(over="ignore"):  # the nesting check subtracts extremes
        return f.FuzzyVector.from_arrays(grid, lower, upper)


@st.composite
def trajectories(draw):
    grid = f.AlphaGrid.uniform(draw(st.integers(2, 6)))
    n = draw(st.integers(1, 3))
    times = sorted(draw(st.lists(st.sampled_from([-0.0, 5e-324, 2.0]) | st.floats(-1e6, 1e6),
                                 min_size=2, max_size=5, unique=True)))
    points = draw(st.integers(1, len(times)))
    values = [draw(states(grid, n)) for _ in range(points)]
    segments = draw(st.none() | st.lists(st.integers(0, 5), min_size=points, max_size=points))
    return FuzzyTrajectory(f.explicit(times), values, segments)


def _bits(u):
    return u.lower.tobytes(), u.upper.tobytes()


@given(trajectories(), st.data())
@settings(max_examples=150, deadline=None)
def test_writers_match_csv_writer_bytes_and_round_trip(traj, data):
    entries = [(t, data.draw(st.none() | st.just(value)))
               for t, value in zip(traj.times.tolist(), traj.values)]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ftio.write_trajectory_csv(tmp / "new.csv", traj)
        reference_write_trajectory_csv(tmp / "ref.csv", traj)
        assert (tmp / "new.csv").read_bytes() == (tmp / "ref.csv").read_bytes()
        ftio.write_derivative_csv(tmp / "new_d.csv", entries)
        reference_write_derivative_csv(tmp / "ref_d.csv", entries)
        assert (tmp / "new_d.csv").read_bytes() == (tmp / "ref_d.csv").read_bytes()
        with np.errstate(over="ignore"):
            times, segments, values = ftio.load_trajectory_csv(tmp / "new.csv")
    assert [np.float64(t).tobytes() for t in times] == [t.tobytes() for t in traj.times]
    assert segments == (traj.segments or [0] * len(traj))
    assert [_bits(v) for v in values] == [_bits(v) for v in traj.values]


def formatted(values):
    """``values`` written by ``floatfmt.rows`` as rows with an empty head and tail."""
    x = np.asarray(values, float).reshape(-1, 2)
    return floatfmt.rows([""], np.zeros((len(x), 0), np.uint8), x)[0]


def reference(values):
    """``values`` written by Python's own ``b"%.17g" % v``."""
    return b"".join(b",%.17g,%.17g\r\n" % tuple(pair)
                    for pair in np.asarray(values, float).reshape(-1, 2).tolist()).decode()


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(99999999999999999.0)  # is 1e17: written by Python, in exponent notation
@example(1000000000000000.25)  # a tie at the 17th digit, kept even: ...0.2
@example(1000000000000000.75)  # a tie rounded up to even: ...0.8
@example(1e-4)  # the window's edges and their neighbour doubles
@example(float(np.nextafter(1e-4, 0)))
@example(float(np.nextafter(1e-4, 1)))
@example(1e16)
@example(float(np.nextafter(1e16, 0)))
@example(float(np.nextafter(1e16, np.inf)))
def test_formatter_writes_each_float_as_percent_17g(v):
    assert formatted([v, -v]) == reference([v, -v])


def test_formatter_writes_each_power_of_ten_in_the_window_and_its_neighbours():
    powers = np.array([float(f"1e{j}") for j in range(-4, 17)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    assert formatted(values) == reference(values)


@pytest.mark.parametrize("second, error", [
    (lambda: f.FuzzyVector.from_arrays(f.AlphaGrid(np.array([0, .25, 1])), [[0, 0, 0]], [[1, 1, 1]]),
     f.GridMismatchError),
    (lambda: f.FuzzyVector.from_arrays(f.AlphaGrid(np.array([0, .5, 1])), [[0, 0, 0]] * 2, [[1, 1, 1]] * 2),
     f.DimensionMismatchError),
], ids=["grid", "components"])
def test_writers_reject_a_state_unlike_the_first_and_leave_no_file(tmp_path, second, error):
    first = f.FuzzyVector.from_arrays(f.AlphaGrid(np.array([0, .5, 1])), [[0, 0, 0]], [[1, 1, 1]])
    with pytest.raises(error):
        ftio.write_trajectory_csv(tmp_path / "trajectory.csv", [(0.0, 0, first), (1.0, 0, second())])
    with pytest.raises(error):
        ftio.write_derivative_csv(tmp_path / "derivative.csv", [(0.0, first), (1.0, second())])
    assert list(tmp_path.iterdir()) == []


class _CountingFile:
    """A text file that counts the calls to its ``write``."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        self.writes += 1
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self.fh, name)


def test_trajectory_writer_makes_one_write_per_point(tmp_path, monkeypatch):
    grid = f.AlphaGrid.uniform(5)
    traj = hybrid.solve(catalog.make_example_3_9(grid, 10.0).system, horizon=10.0)
    files = []

    def counting_open(*args, **kwargs):
        files.append(_CountingFile(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(ftio, "open", counting_open, raising=False)
    ftio.write_trajectory_csv(tmp_path / "trajectory.csv", traj)
    assert len(files) == 1
    assert 0 < files[0].writes <= len(traj) + 1  # the header, then one per point


def test_small_states_formatted_in_batches_are_written_one_by_one(tmp_path, monkeypatch):
    # 3 rows a state: the formatter takes two batches of them, the last one short
    traj = hybrid.solve(catalog.make_example_3_9(f.AlphaGrid.uniform(3), 100.0).system, horizon=100.0)
    assert floatfmt._BATCH_ROWS < 3 * len(traj) < 2 * floatfmt._BATCH_ROWS
    files = []

    def counting_open(*args, **kwargs):
        files.append(_CountingFile(open(*args, **kwargs)))
        return files[-1]

    monkeypatch.setattr(ftio, "open", counting_open, raising=False)
    assert ftio.write_trajectory_csv(tmp_path / "new.csv", traj) == len(traj)
    assert files[0].writes == len(traj) + 1
    reference_write_trajectory_csv(tmp_path / "ref.csv", traj)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# ---------------------------------------------------------------------------
# Streaming: hybrid.states written as it steps
# ---------------------------------------------------------------------------

GRID = f.AlphaGrid.uniform(11)


def dsl_system(lambda_k="u_k"):
    """Two components on a scale with a gap, switching three times."""
    sections = {
        "timescale": {"scale": "intervals([[0,2],[3,5]], 0.05)"},
        "system": {"rhs": "smul(-0.3, u) fadd smul(0.2, lam)", "lambda_0": "crisp(0.5)",
                   "lambda_k": lambda_k, "switch_times": "0 0.5 3 4.2",
                   "u0": "tri(-1,0,1) | trap(-2,-1,0,1)"},
    }
    cfg = RunConfig(sections, Path("out"), GRID.m, None)
    return build_dsl_bundle(cfg, GRID, 100.0).system


@pytest.mark.parametrize("system, mode, horizon", [
    (lambda: catalog.make_example_3_9(GRID, 12.0).system, hybrid.StepMode.EXPANSIVE, 12.0),
    # contractive example_3_9 steps fail from t=6
    (lambda: catalog.make_example_3_9(GRID, 12.0).system, hybrid.StepMode.CONTRACTIVE, 6.0),
    (dsl_system, hybrid.StepMode.EXPANSIVE, None),
    (dsl_system, hybrid.StepMode.EXPANSIVE, 4.5),
], ids=["example_3_9-expansive", "example_3_9-contractive", "dsl-gap", "dsl-gap-early-horizon"])
def test_streamed_and_collected_trajectories_write_the_same_bytes(tmp_path, system, mode, horizon):
    sys = system()
    streamed = ftio.write_trajectory_csv(tmp_path / "streamed.csv",
                                         hybrid.states(sys, mode=mode, horizon=horizon))
    traj = hybrid.solve(sys, mode=mode, horizon=horizon)
    assert streamed == ftio.write_trajectory_csv(tmp_path / "collected.csv", traj) == len(traj)
    assert traj.horizon == (horizon if horizon is not None else float(sys.ts.points[-1]))
    assert traj.segments[-1] > 0  # past a switch
    assert (tmp_path / "streamed.csv").read_bytes() == (tmp_path / "collected.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["collected.csv", "streamed.csv"]


def test_simulate_stream_holds_no_state_before_the_previous_one(tmp_path):
    # the held values are computed, not states of the trajectory, so that
    # no switch keeps a yielded state alive; u0 is the system's own
    sys = dsl_system(lambda_k="smul(0.5, u_k)")
    alive_at = []
    refs = []

    def watched(points):
        for t, k, u in points:
            refs.append(weakref.ref(u.lower))
            alive_at.append([i for i, ref in enumerate(refs[1:-2], 1) if ref() is not None])
            yield t, k, u

    points = ftio.write_trajectory_csv(tmp_path / "trajectory.csv", watched(hybrid.states(sys)))
    assert points == len(sys.ts) == len(alive_at)
    assert alive_at == [[]] * points


def test_writer_leaves_no_file_when_its_points_raise(tmp_path):
    traj = hybrid.solve(catalog.make_example_3_9(GRID, 10.0).system, horizon=10.0)

    def failing():
        for i, point in enumerate(traj):
            if i == 3:
                raise RuntimeError("step failed")
            yield point

    with pytest.raises(RuntimeError, match="step failed"):
        ftio.write_trajectory_csv(tmp_path / "trajectory.csv", failing())
    assert list(tmp_path.iterdir()) == []


def test_json_writer_leaves_no_file_when_the_payload_holds_nan(tmp_path):
    path = tmp_path / "verdict.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        ftio.write_json(path, {"a": 1.0, "rho": float("nan")})
    assert list(tmp_path.iterdir()) == []
    ftio.write_json(path, {"rho": 1.0})  # an earlier file is kept as it was
    before = path.read_bytes()
    with pytest.raises(ValueError, match="not JSON compliant"):
        ftio.write_json(path, {"rho": float("inf")})
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before
