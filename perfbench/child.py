"""One benchmark measurement, run in a fresh interpreter by ``run.py``.

    python3 child.py setup SRC ARGV_JSON          prints the set-up's timing
    python3 child.py run   SRC ARGV_JSON REPORT   runs the CLI, exits with its code
    python3 child.py trace SRC ARGV_JSON REPORT   the same, traced
    python3 child.py micro SRC N M                prints per-call kernel times in ns

SRC is the directory holding the ``fuzzyts`` package and ARGV_JSON the CLI
arguments as a JSON list.  Every mode times its work with a ``SpeedProbe``
and reports times at nominal CPU speed.  ``run`` and ``trace`` write that
timing and the process's peak resident memory to the REPORT file, and
``trace`` adds the per-layer metrics.  Only ``trace`` imports the tracer.
"""

from __future__ import annotations

import gc
import json
import signal
import statistics
import sys
import time


class _Pair:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _reference() -> tuple:
    """A fixed piece of the kind of work the program does, in pure Python so
    that it imports nothing: an arithmetic loop, and small objects built and
    read back.  About 50 us at full speed on the machine named in README.md."""
    s = 0
    for j in range(600):
        s += j * j
    pairs = [_Pair(j, (j, j + 1.0)) for j in range(80)]
    table = {p.key: p.value[1] * 2.0 for p in pairs}
    return s, table


class SpeedProbe:
    """Times a block of work and samples the CPU's speed while it runs.

    On a shared virtual machine the CPU's speed changes by up to 1.6 times
    within seconds and drifts over minutes.  Every ``INTERVAL_S`` a timer
    signal runs ``_reference`` and records how long it took, with the
    garbage collector held off so that the sample does not pay for the
    program's heap.  The block's time less the samples (about 1%) is then
    weighted, moment by moment, by ``NOMINAL_S`` over the sample's time: the
    result is the block's time on a CPU that runs ``_reference`` in exactly
    ``NOMINAL_S``, whatever the machine's speed did meanwhile.
    """

    INTERVAL_S = 0.005
    NOMINAL_S = 50e-6

    def __enter__(self):
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        self.start = time.perf_counter()
        return self

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _reference()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self.start

    def report(self) -> dict:
        """Wall time, time less sampling, and time at the nominal speed."""
        if not self.samples:
            raise RuntimeError("the block ended before the speed probe sampled it")
        net_s = self.wall_s - sum(self.samples)
        return {
            "wall_s": self.wall_s,
            "net_s": net_s,
            "nominal_s": net_s * statistics.fmean(self.NOMINAL_S / r for r in self.samples),
        }


def setup(argv: list[str]) -> dict:
    """What every CLI call pays before it computes: import, config, bundle, query."""
    with SpeedProbe() as probe:
        from fuzzyts import cli

        args = cli.build_parser().parse_args(argv)
        cfg = cli.load_config(args)
        bundle, _, _ = cli.build_bundle(cfg)
        if args.cmd == "stability":
            cli.build_query(cfg, rho=bundle.system.rho)
    return probe.report()


def peak_rss_mb() -> float:
    """High-water resident memory of this process since it started the program.

    Read from /proc rather than getrusage, whose figure also counts the memory
    of the parent that spawned this process.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv: list[str], report: str) -> int:
    """The whole command, from importing the CLI to its return."""
    with SpeedProbe() as probe:
        from fuzzyts import cli

        code = cli.main(argv)
    with open(report, "w") as fh:
        json.dump({**probe.report(), "peak_rss_mb": peak_rss_mb()}, fh)
    return code


def trace(argv: list[str], report: str) -> int:
    import tracer

    with SpeedProbe() as probe:
        t = tracer.Tracer()
        t.install()
        from fuzzyts import cli

        code = t.span("cli.main", cli.main)(argv)
    timing = probe.report()
    metrics = {name: {"value": at_nominal_speed(value, unit, timing), "unit": unit}
               for name, (value, unit) in t.metrics().items()}
    with open(report, "w") as fh:
        json.dump({**timing, "peak_rss_mb": peak_rss_mb(), "metrics": metrics,
                   "absent": t.absent}, fh)
    return code


def at_nominal_speed(value: float, unit: str, timing: dict) -> float:
    """A time measured inside a probed block, taken to nominal speed with the
    block's mean ratio of nominal to wall time; counts are left alone."""
    return value * timing["nominal_s"] / timing["wall_s"] if unit in ("s", "ns") else value


def _ns_per_call(fn, *args) -> float:
    """Median over five batches of the per-call time; a batch lasts 20 ms or more."""
    number = 1
    while True:
        start = time.perf_counter_ns()
        for _ in range(number):
            fn(*args)
        if time.perf_counter_ns() - start >= 20_000_000:
            break
        number *= 2
    samples = []
    for _ in range(5):
        start = time.perf_counter_ns()
        for _ in range(number):
            fn(*args)
        samples.append((time.perf_counter_ns() - start) / number)
    return statistics.median(samples)


def micro(n: int, m: int) -> dict[str, float]:
    """Per-call time of the fuzzy kernels on operands of the workload's shape."""
    from fuzzyts import fuzzy

    grid = fuzzy.AlphaGrid.uniform(m)
    u = fuzzy.make_triangle(-2.0, 0.0, 2.0, grid)
    v = fuzzy.make_triangle(-1.0, 0.0, 1.0, grid)  # u (-)gH v exists
    vec = fuzzy.FuzzyVector(tuple(u for _ in range(n)))
    return {
        "fuzzy.add.ns": _ns_per_call(fuzzy.add, u, v),
        "fuzzy.scale.ns": _ns_per_call(fuzzy.scale, -0.5, u),
        "fuzzy.gh_difference.ns": _ns_per_call(fuzzy.gh_difference, u, v),
        "fuzzy.dist.ns": _ns_per_call(fuzzy.dist, u, v),
        "fuzzy.norm.ns": _ns_per_call(fuzzy.norm, vec),
    }


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    sys.path.insert(0, src)
    if mode == "setup":
        print(json.dumps(setup(json.loads(argv[2]))))
        return 0
    if mode == "run":
        return run(json.loads(argv[2]), argv[3])
    if mode == "trace":
        return trace(json.loads(argv[2]), argv[3])
    if mode == "micro":
        with SpeedProbe() as probe:
            times = micro(int(argv[2]), int(argv[3]))
        timing = probe.report()
        print(json.dumps({name: at_nominal_speed(ns, "ns", timing) for name, ns in times.items()}))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
