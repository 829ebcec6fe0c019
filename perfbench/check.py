"""Output checker: decides whether one CLI run produced the right artifacts.

A run is correct when its exit code matches the workload's, every property
status matches, and, at the default seed, each violated property's first
witness ``(t, value, bound)`` matches.  For ``simulate`` the trajectory CSV
must hold every point, and at the horizon each component's support and core
endpoints must match.  The artifact's SHA-256 is returned so that the runs of
one benchmark invocation can be compared byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import ABS_TOL, DEFAULT_SEED, REL_TOL, Workload

# Spelled out here, not imported from fuzzyts.io, so that a changed writer fails.
TRAJECTORY_HEADER = b"t,segment_k,component,alpha,lower,upper"


def _close(got, expected: float) -> bool:
    return (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isclose(got, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL))


def check_run(w: Workload, seed: int, exit_code: int, out_dir: Path) -> tuple[list[str], str | None]:
    """Problems found in one run (empty when it is correct) and the artifact's digest."""
    problems = []
    if exit_code != w.exit_code:
        problems.append(f"exit code {exit_code}, expected {w.exit_code}")
    try:
        data = (out_dir / w.artifact).read_bytes()
    except OSError as exc:
        return problems + [f"cannot read {w.artifact}: {exc}"], None
    if w.command == "stability":
        problems += check_verdict(w, seed, data)
    else:
        problems += check_trajectory(w, data)
    return problems, hashlib.sha256(data).hexdigest()


def check_verdict(w: Workload, seed: int, data: bytes) -> list[str]:
    try:
        props = json.loads(data)["properties"]
        statuses = {name: p["status"] for name, p in props.items()}
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"verdict.json is malformed: {exc!r}"]
    problems = []
    if statuses != w.statuses:
        problems.append(f"statuses {statuses}, expected {w.statuses}")
    if seed == DEFAULT_SEED:
        for name, expected in w.witnesses.items():
            witness = props.get(name, {}).get("witness") or {}
            got = tuple(witness.get(key) for key in ("t", "value", "bound"))
            if not all(_close(g, e) for g, e in zip(got, expected)):
                problems.append(f"{name} witness {got}, expected {expected}")
    return problems


def check_trajectory(w: Workload, data: bytes) -> list[str]:
    n, m = w.shape
    if data.split(b"\n", 1)[0].rstrip(b"\r") != TRAJECTORY_HEADER:
        return ["trajectory.csv has the wrong header"]
    if not data.endswith(b"\n"):
        return ["trajectory.csv does not end with a complete row"]
    rows = data.count(b"\n") - 1
    if rows != w.points * n * m:
        return [f"trajectory.csv has {rows} rows, expected {w.points * n * m}"]
    # the final state is the last n*m rows; find them without copying the file
    end = len(data) - 1
    begin = end
    for _ in range(n * m):
        begin = data.rfind(b"\n", 0, begin)
    final: dict[int, dict[float, tuple[float, float]]] = {}
    try:
        for line in data[begin + 1:end].split(b"\n"):
            t, _, comp, alpha, lower, upper = line.rstrip(b"\r").split(b",")
            if not _close(float(t), w.horizon):
                return [f"final rows are at t={float(t)}, expected {w.horizon}"]
            final.setdefault(int(comp), {})[float(alpha)] = (float(lower), float(upper))
        got = tuple((c[0.0][0], c[0.0][1], c[1.0][0], c[1.0][1])
                    for _, c in sorted(final.items()))
    except (ValueError, KeyError) as exc:
        return [f"trajectory.csv final state is malformed: {exc!r}"]
    if len(got) != len(w.final) or not all(
            _close(g, e) for gs, es in zip(got, w.final) for g, e in zip(gs, es)):
        return [f"final endpoints {got}, expected {w.final}"]
    return []
