"""CSV and JSON artifact writers with round-trippable float formatting.

Column orders and header names are frozen; the schema version travels in
the run metadata.  Floats are written with 17 significant digits so a
loader reconstructs exactly the in-memory values; ``floatfmt`` writes the
rows of states, in numpy, to the bytes ``_fmt`` gives.
Rows are written as formatted strings with CRLF ends, as the csv module
writes them: every field is a number, so no field ever needs quoting.
A CSV is written as its rows come (a trajectory streamed from the solver is
never held whole), and every artifact, CSV or JSON, goes to ``<name>.part``,
renamed onto ``<name>`` once complete, so a run that fails leaves no partial
file.
"""

from __future__ import annotations

import itertools
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import GridMismatchError
from .fuzzy import AlphaGrid, FuzzyVector

if TYPE_CHECKING:  # an annotation only: writing a trajectory never loads the comparison
    from .comparison import ScalarTrajectory

SCHEMA_VERSION = 1

TRAJECTORY_HEADER = ["t", "segment_k", "component", "alpha", "lower", "upper"]
SCALAR_HEADER = ["t", "segment_k", "r"]
COMPARISON_HEADER = ["t", "V", "r", "margin"]
DERIVATIVE_HEADER = ["t", "component", "alpha", "lower", "upper"]

_FLOAT_FORMAT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT_FORMAT)


def _write_part(path: Path, head: str, chunks=()) -> int:
    """``head``, then each string of ``chunks`` in one write, to ``<name>.part``
    (see above); returns the count of chunks."""
    part = Path(f"{path}.part")
    count = 0
    try:
        with open(part, "w", newline="") as fh:
            fh.write(head)
            for count, chunk in enumerate(chunks, 1):
                fh.write(chunk)
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise
    return count


def _write_rows(path: Path, header: list[str], rows) -> int:
    """``header``, then each string of ``rows`` (one or more whole rows)."""
    return _write_part(path, ",".join(header) + "\r\n", rows)


def _state_rows(points):
    """Per ``(head, state)`` point, its rows as one string (see ``floatfmt``)."""
    from . import floatfmt  # only a CSV of states compiles it
    return floatfmt.state_rows(points)


def write_trajectory_csv(path: Path, points) -> int:
    """Write each ``(t, segment, state)`` of ``points`` (a FuzzyTrajectory, or
    ``hybrid.states`` as it steps) when it comes; returns the point count."""
    return _write_rows(path, TRAJECTORY_HEADER,
                       _state_rows((f"{_fmt(t)},{seg}", value) for t, seg, value in points))


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
    """Deterministic JSON: sorted keys, fixed separators, trailing newline;
    written as it is encoded, as ``json.dump`` writes.  A value JSON cannot
    hold (a nan, say) raises, and leaves no file."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True, allow_nan=False).iterencode(payload)
    _write_part(path, "", itertools.chain(chunks, ("\n",)))
