"""CSV and JSON artifact writers with round-trippable float formatting.

Column orders and header names are frozen; the schema version travels in
the run metadata.  Floats are written with 17 significant digits so a
loader reconstructs exactly the in-memory values.
"""

from __future__ import annotations

import csv
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


def _state_rows(head: list, value: FuzzyVector, alphas: list[str]) -> list[list]:
    """One row per component and level: ``head``, component, alpha, lower, upper.

    ``alphas`` are the formatted levels of the state's grid; ``tolist()``
    yields Python floats, which need no conversion before formatting.
    """
    return [[*head, c, alpha, format(lo, _FLOAT_FORMAT), format(hi, _FLOAT_FORMAT)]
            for c, (lows, highs) in enumerate(zip(value.lower.tolist(), value.upper.tolist()))
            for alpha, lo, hi in zip(alphas, lows, highs)]


def _alpha_strings(grid: AlphaGrid) -> list[str]:
    return [_fmt(a) for a in grid.levels.tolist()]


def write_trajectory_csv(path: Path, traj: FuzzyTrajectory) -> None:
    alphas = _alpha_strings(traj.values[0].grid)
    segments = traj.segments if traj.segments is not None else [0] * len(traj)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for t, seg, value in zip(traj.times.tolist(), segments, traj.values):
            writer.writerows(_state_rows([_fmt(t), seg], value, alphas))


def load_trajectory_csv(path: Path) -> tuple[list[float], list[int], list[FuzzyVector]]:
    """Rebuild (times, segments, values) from a trajectory CSV."""
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
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SCALAR_HEADER)
        for i in range(len(traj)):
            writer.writerow([_fmt(float(traj.ts.points[i])), int(traj.segments[i]),
                             _fmt(float(traj.values[i]))])


def write_comparison_csv(path: Path, times, v_values, r_values) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_HEADER)
        for t, v, r in zip(times, v_values, r_values):
            writer.writerow([_fmt(t), _fmt(v), _fmt(r), _fmt(r - v)])


def write_derivative_csv(path: Path, entries) -> None:
    """entries: iterable of (t, FuzzyVector | None)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(DERIVATIVE_HEADER)
        alphas = None
        for t, deriv in entries:
            if deriv is None:
                continue
            if alphas is None:
                alphas = _alpha_strings(deriv.grid)
            writer.writerows(_state_rows([_fmt(t)], deriv, alphas))


def write_json(path: Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
