"""fuzzyts benchmark: runs the real CLI on one workload and reports metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Each CLI call runs in a fresh interpreter, one at a time, on one thread, and
its artifacts are checked (``check.py``) and hashed: every call of one
invocation must write byte-identical artifacts.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it print every metric with its unit.

``--trace 0`` measures the end-to-end metrics with no tracer loaded: as many
CLI calls as fit in ``--seconds``, each preceded by a few fresh-interpreter
set-ups, and reports the medians of ``command_s``, ``setup_s`` (both at a
nominal CPU speed, see ``child.SpeedProbe``) and ``peak_rss_mb``; the raw
wall and CPU times are printed too.  ``--trace 1`` makes one untraced call, then traced calls
(two at least, more while they fit), and reports the per-layer metrics of
``tracer.py``, the kernel timings of ``child.py micro`` and the tracer's
overhead.  Failed calls over attempted calls is the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from check import check_run
from workloads import DEFAULT_SEED, WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-ups before each CLI call: spread over the run, they share its machine state.
SETUPS_PER_CALL = 8
# Every child must end before a run reaches this, so a run ends within 180 s.
RUN_DEADLINE_S = 170.0

ENV = {
    **os.environ,
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "FTL_LOG": "warning",
}


@dataclass
class Call:
    """One CLI call: what its checks found, its artifact digest and its costs."""

    problems: list[str]
    digest: str | None
    wall_s: float
    cpu_s: float
    report: dict = field(default_factory=dict)  # the child's report: timing, peak RSS, trace


class Run:
    """Work directory, deadline and child processes of one benchmark invocation."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.out = work / "out"
        self.report = work / "report.json"

    def child(self, *args: str) -> tuple[int, float, float, str]:
        """Run ``child.py`` to completion: exit code, wall s, CPU s, stdout.
        A child still running at the deadline is killed and reads as exit code -9."""
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                                  capture_output=True, env=ENV, cwd=self.work,
                                  timeout=max(0.0, self.deadline - time.monotonic()))
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired as exc:
            code, stdout, stderr = -9, exc.stdout or b"", exc.stderr or b""
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if code not in (0, 1):
            sys.stderr.write(stderr.decode(errors="replace")[-2000:])
        return code, wall, cpu, stdout.decode()

    def setup(self, argv: list[str]) -> dict:
        """One set-up in a fresh interpreter: its ``SpeedProbe`` report."""
        code, _, _, stdout = self.child("setup", str(SRC), json.dumps(argv))
        if code != 0:
            raise RuntimeError(f"set-up child failed with exit code {code}")
        return json.loads(stdout)

    def cli(self, w: Workload, seed: int, argv: list[str], mode: str = "run") -> Call:
        shutil.rmtree(self.out, ignore_errors=True)
        self.report.unlink(missing_ok=True)
        code, wall, cpu, _ = self.child(mode, str(SRC), json.dumps(argv), str(self.report))
        problems, digest = check_run(w, seed, code, self.out)
        call = Call(problems, digest, wall, cpu)
        try:
            call.report = json.loads(self.report.read_text())
        except (OSError, ValueError) as exc:
            problems.append(f"no report written: {exc!r}")
        return call


def repeat(seconds: int, start: float, step, minimum: int = 1) -> None:
    """Call ``step`` ``minimum`` times, then while one more of the median
    duration still ends ``seconds`` after ``start``."""
    durations: list[float] = []
    while len(durations) < minimum or time.monotonic() - start + statistics.median(durations) <= seconds:
        begin = time.monotonic()
        step()
        durations.append(time.monotonic() - begin)


def measure(w: Workload, seed: int, seconds: int, traced: bool,
            run: Run) -> tuple[list[Call], dict, dict]:
    """All CLI calls of one invocation, the metrics, and raw timings to print."""
    config = run.work / "run.cfg"
    config.write_text(w.config_text(seed))
    argv = [w.command, "--config", str(config), "--out", str(run.out)]
    run.setup(argv)  # warm-up: writes the bytecode caches every later call reads

    start = time.monotonic()
    calls: list[Call] = []
    metrics: dict[str, tuple[float, str]] = {}
    if not traced:
        setups: list[dict] = []

        def step():
            setups.extend(run.setup(argv) for _ in range(SETUPS_PER_CALL))
            calls.append(run.cli(w, seed, argv))

        repeat(seconds, start, step)
        reports = [c.report for c in calls if c.report]
        if reports:
            metrics["command_s"] = (statistics.median(r["nominal_s"] for r in reports), "s")
            metrics["setup_s"] = (statistics.median(r["nominal_s"] for r in setups), "s")
            metrics["peak_rss_mb"] = (statistics.median(r["peak_rss_mb"] for r in reports), "MB")
    else:
        calls.append(run.cli(w, seed, argv))
        # two traced calls at least, so that every traced run checks its counts repeat
        repeat(seconds, start, lambda: calls.append(run.cli(w, seed, argv, "trace")), minimum=2)
        traces = [c for c in calls[1:] if "metrics" in c.report]
        if traces and calls[0].report:
            metrics.update(combine_traces(traces, calls[0]))
        code, _, _, stdout = run.child("micro", str(SRC), *map(str, w.shape))
        if code == 0:
            metrics.update({name: (value, "ns") for name, value in json.loads(stdout).items()})

    for call in calls:
        if call.digest != calls[0].digest:
            call.problems.append(f"{w.artifact} differs from the first call's "
                                 f"(sha256 {call.digest} vs {calls[0].digest})")
    raw = {"wall_s": (statistics.median(c.wall_s for c in calls), "s"),
           "cpu_s": (statistics.median(c.cpu_s for c in calls), "s")}
    return calls, metrics, raw


def combine_traces(traces: list[Call], untraced: Call) -> dict:
    """Median of each time over the traced calls; counts must repeat exactly,
    and a count that differs from the first call's is a problem of that call."""
    first = traces[0].report
    metrics = {}
    for name, entry in first["metrics"].items():
        values = [c.report["metrics"].get(name, {}).get("value") for c in traces]
        if entry["unit"] in ("count", "bytes"):
            metrics[name] = (entry["value"], entry["unit"])
            for value, call in zip(values, traces):
                if value != entry["value"]:
                    call.problems.append(f"count {name} is {value}, "
                                         f"the first traced call's is {entry['value']}")
        else:
            metrics[name] = (statistics.median(v for v in values if v is not None), entry["unit"])
    traced_s = statistics.median(c.report["nominal_s"] for c in traces)
    metrics["trace.overhead"] = (traced_s / untraced.report["nominal_s"], "ratio")
    for key, why in first["absent"].items():
        print(f"absent: {key}: {why}", file=sys.stderr)
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fuzzyts" / "cli.py").is_file():
        print(f"error: no fuzzyts sources under {SRC}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        calls, metrics, raw = measure(w, args.seed, args.seconds, bool(args.trace),
                                      Run(work, time.monotonic() + RUN_DEADLINE_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    failed = sum(1 for c in calls if c.problems)
    for i, call in enumerate(calls):
        for problem in call.problems:
            print(f"call {i} failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>20.6f} {unit}")
    # not declared metrics: raw times follow the machine's speed, and the error rate is 0
    for name, (value, unit) in raw.items():
        print(f"{'raw.' + name:40s} {value:>20.6f} {unit}")
    print(f"{'error_rate':40s} {failed / len(calls):>20.6f} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
