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
from .fuzzy import AlphaGrid, FuzzyNumber, FuzzyVector
from .hukuhara import FuzzyTrajectory

SCHEMA_VERSION = 1

TRAJECTORY_HEADER = ["t", "segment_k", "component", "alpha", "lower", "upper"]
SCALAR_HEADER = ["t", "segment_k", "r"]
COMPARISON_HEADER = ["t", "V", "r", "margin"]
DERIVATIVE_HEADER = ["t", "component", "alpha", "lower", "upper"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_trajectory_csv(path: Path, traj: FuzzyTrajectory) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRAJECTORY_HEADER)
        for i, value in enumerate(traj.values):
            t = float(traj.ts.points[i])
            seg = traj.segments[i] if traj.segments is not None else 0
            for c, comp in enumerate(value):
                for alpha, lo, hi in comp.to_records():
                    writer.writerow([_fmt(t), seg, c, _fmt(alpha), _fmt(lo), _fmt(hi)])


def load_trajectory_csv(path: Path) -> tuple[list[float], list[int], list[FuzzyVector]]:
    """Rebuild (times, segments, values) from a trajectory CSV."""
    rows: dict[float, dict[int, list[tuple[float, float, float]]]] = {}
    segments: dict[float, int] = {}
    order: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != TRAJECTORY_HEADER:
            raise ValueError(f"unexpected trajectory header: {header}")
        for t_s, seg_s, comp_s, alpha_s, lo_s, hi_s in reader:
            t = float(t_s)
            if t not in rows:
                rows[t] = {}
                order.append(t)
                segments[t] = int(seg_s)
            rows[t].setdefault(int(comp_s), []).append(
                (float(alpha_s), float(lo_s), float(hi_s)))
    values = []
    for t in order:
        comps = []
        for c in sorted(rows[t]):
            records = rows[t][c]
            grid = AlphaGrid(np.array([r[0] for r in records]))
            comps.append(FuzzyNumber(grid,
                                     np.array([r[1] for r in records]),
                                     np.array([r[2] for r in records])))
        values.append(FuzzyVector(tuple(comps)))
    return order, [segments[t] for t in order], values


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
        for t, deriv in entries:
            if deriv is None:
                continue
            for c, comp in enumerate(deriv):
                for alpha, lo, hi in comp.to_records():
                    writer.writerow([_fmt(t), c, _fmt(alpha), _fmt(lo), _fmt(hi)])


def write_json(path: Path, payload: dict) -> None:
    """Deterministic JSON: sorted keys, fixed separators, trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
