"""CSV and JSON artifact writers with round-trippable float formatting.

Column orders and header names are frozen; the schema version travels in
the run metadata.  Floats are written with 17 significant digits so a
loader reconstructs exactly the in-memory values.
Rows are written as formatted strings with CRLF ends, as the csv module
writes them: every field is a number, so no field ever needs quoting.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .comparison import ScalarTrajectory
from .errors import GridMismatchError
from .fuzzy import AlphaGrid, FuzzyVector
from .hukuhara import FuzzyTrajectory

SCHEMA_VERSION = 1

TRAJECTORY_HEADER = ["t", "segment_k", "component", "alpha", "lower", "upper"]
SCALAR_HEADER = ["t", "segment_k", "r"]
COMPARISON_HEADER = ["t", "V", "r", "margin"]
DERIVATIVE_HEADER = ["t", "component", "alpha", "lower", "upper"]

_FLOAT_FORMAT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FORMAT)


def _write_rows(path: Path, header: list[str], rows) -> None:
    """``header``, then each string of ``rows`` (one or more whole rows) in one write."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(row)


def _state_rows(points):
    """Per ``(head, state)`` point, its rows (head, component, alpha, lower,
    upper) as one string: the row tails, formatted once from the first state,
    are filled in one ``%``, which writes the floats as ``_fmt`` does."""
    tails = None
    for head, value in points:
        if tails is None:
            tails = [f",{c},{_fmt(alpha)},%{_FLOAT_FORMAT},%{_FLOAT_FORMAT}\r\n"
                     for c in range(value.n) for alpha in value.grid.levels.tolist()]
        cuts = np.stack((value.lower, value.upper), -1).ravel().tolist()
        yield (head + head.join(tails)) % tuple(cuts)


def write_trajectory_csv(path: Path, traj: FuzzyTrajectory) -> None:
    segments = traj.segments if traj.segments is not None else [0] * len(traj)
    rows = _state_rows((f"{_fmt(t)},{seg}", value)
                       for t, seg, value in zip(traj.times.tolist(), segments, traj.values))
    _write_rows(path, TRAJECTORY_HEADER, rows)


def load_trajectory_csv(path: Path) -> tuple[list[float], list[int], list[FuzzyVector]]:
    """Rebuild (times, segments, values) from a trajectory CSV."""
    import csv  # only the loader reads CSV, so writing never imports it
    blocks: dict[float, list[list[str]]] = {}  # t -> its rows, in file order
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header: {header}")
        for row in reader:
            blocks.setdefault(float(row[0]), []).append(row)
    values = []
    for rows in blocks.values():
        rows.sort(key=lambda r: int(r[2]))  # component by component
        cuts = np.array([r[3:] for r in rows], dtype=float).reshape(int(rows[-1][2]) + 1, -1, 3)
        if (cuts[..., 0] != cuts[0, :, 0]).any():
            raise GridMismatchError("vector components live on different grids")
        values.append(FuzzyVector.from_arrays(AlphaGrid(cuts[0, :, 0]), cuts[..., 1], cuts[..., 2]))
    return list(blocks), [int(rows[0][1]) for rows in blocks.values()], values


def write_scalar_csv(path: Path, traj: ScalarTrajectory) -> None:
    _write_rows(path, SCALAR_HEADER, (f"{_fmt(t)},{int(seg)},{_fmt(r)}\r\n"
                                      for t, seg, r in zip(traj.times, traj.segments, traj.values)))


def write_comparison_csv(path: Path, times, v_values, r_values) -> None:
    _write_rows(path, COMPARISON_HEADER, (f"{_fmt(t)},{_fmt(v)},{_fmt(r)},{_fmt(r - v)}\r\n"
                                          for t, v, r in zip(times, v_values, r_values)))


def write_derivative_csv(path: Path, entries) -> None:
    """entries: iterable of (t, FuzzyVector | None); None entries are skipped."""
    _write_rows(path, DERIVATIVE_HEADER, _state_rows(
        (_fmt(t), deriv) for t, deriv in entries if deriv is not None))


def write_json(path: Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
