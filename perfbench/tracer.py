"""In-memory span tracer for the traced benchmark run.

The tracer wraps public functions of each fuzzyts layer by replacing the
attribute that callers look the name up on (a module global, or a class
attribute for methods); the program's own files are not touched.  Layer
boundaries record spans (name, start, end, parent, failed), kept in memory
until the run ends; hot leaf functions (fuzzy kernels, time-scale lookups)
only count calls, because a span per call would cost more than the call.

A span's self time is its duration minus the part of it that its child spans
cover.  Only the traced child process imports this module: the untraced
end-to-end runs never load it.
"""

from __future__ import annotations

import bisect
import functools
import os
import time
from importlib import import_module

_now = time.perf_counter_ns

NS = 1e-9

# Layers whose spans are summed into a per-layer self time.
LAYERS = ("cli", "io", "dsl", "hybrid", "hukuhara", "comparison", "stability")


def self_times(spans: list) -> list[int]:
    """Self time in ns of every span: duration minus the union of its children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        reach = start
        for j in sorted(children[i], key=lambda j: spans[j][1]):
            lo = max(spans[j][1], reach)
            hi = min(spans[j][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Spans, call counts and outermost-call timers for one traced run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1, failed]
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.timers_ns: dict[str, int] = {}
        self._depth: dict[str, list[int]] = {}
        self.present: set[str] = set()  # keys with at least one installed wrapper
        self.absent: dict[str, str] = {}  # target or hook -> why it records nothing

    # -- wrappers -----------------------------------------------------------

    def span(self, name: str, fn, on_exit=None):
        """Record a span around every call; ``on_exit(args, kwargs, result, exc)``
        runs after each call and may add counts."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            record[1] = _now()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                record[4] = True
                exc = e
                raise
            finally:
                record[2] = _now()
                stack.pop()
                if on_exit is not None:
                    on_exit(args, kwargs, result, exc)
            return result

        return wrapper

    def outer_span(self, name: str, fn):
        """Count every call as a node; span only the outermost of nested calls."""
        nodes = name + ".nodes"
        self.counts.setdefault(nodes, 0)
        counts = self.counts
        spanned = self.span(name, fn)
        depth = self._depth.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[nodes] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            try:
                return spanned(*args, **kwargs)
            finally:
                depth[0] = 0

        return wrapper

    def counter(self, key: str, fn):
        """Count calls, nothing else."""
        self.counts.setdefault(key, 0)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def group_timer(self, group: str, key: str, fn):
        """Count calls under ``key``; time only calls not nested in ``group``."""
        self.counts.setdefault(key, 0)
        self.timers_ns.setdefault(group, 0)
        counts, timers = self.counts, self.timers_ns
        depth = self._depth.setdefault(group, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                timers[group] += _now() - start
                depth[0] = 0

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for target, kind, key in TARGETS:
            module_name, attr = target.split(":")
            try:
                owner = import_module(module_name)
                *path, name = attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                self.absent[target] = repr(exc)
                continue
            if kind == "count":
                wrapper = self.counter(key, fn)
            elif kind == "timescale":
                wrapper = self.group_timer("timescale", key, fn)
            elif kind == "recursive":
                wrapper = self.outer_span(key, fn)
            else:
                wrapper = self.span(key, fn, HOOKS.get(key, lambda tr: None)(self))
            setattr(owner, name, wrapper)
            self.present.add(key)

    # -- metrics ------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, as (value, unit); absent ones are left out."""
        totals = Totals(self)
        missing = set().union(*(needs for _, needs, _ in METRICS.values())) - self.present
        missing |= set(self.absent)
        return {name: (float(value(totals)), unit) for name, (unit, needs, value) in METRICS.items()
                if not needs & missing}


class Totals:
    """What the metrics are computed from: one traced run's counts, group
    timers and span totals by name, by (name, parent name) and by layer."""

    def __init__(self, tracer: Tracer):
        self.counts = tracer.counts
        self.timers_ns = tracer.timers_ns
        self.by_name: dict[str, list[int]] = {}  # name -> totals in SPAN_FIELDS order
        self.by_parent: dict[tuple[str, str], list[int]] = {}
        self.layer_self_ns = {layer: 0 for layer in LAYERS}
        spans = tracer.spans
        for (name, start, end, parent, failed), self_ns in zip(spans, self_times(spans)):
            parent_name = spans[parent][0] if parent >= 0 else ""
            for agg in (self.by_name.setdefault(name, [0, 0, 0, 0]),
                        self.by_parent.setdefault((name, parent_name), [0, 0, 0, 0])):
                agg[0] += 1
                agg[1] += failed
                agg[2] += end - start
                agg[3] += self_ns
            layer = name.split(".")[0]
            if layer in self.layer_self_ns:
                self.layer_self_ns[layer] += self_ns

    def span(self, name: str, field: str, parent: str | None = None) -> int:
        """Total ``field`` of the spans called ``name`` (whose parent is ``parent``)."""
        agg = self.by_name.get(name) if parent is None else self.by_parent.get((name, parent))
        return agg[SPAN_FIELDS.index(field)] if agg else 0


SPAN_FIELDS = ("calls", "failed", "dur_ns", "self_ns")


KERNELS = ("add", "scale", "gh_difference", "dist", "norm")
HYPOTHESIS_CHECKS = ("sandwich", "lipschitz", "monotonicity", "condition_ii", "comparison_route")

# (module:attribute, kind, key).  Kinds: "count" counts calls, "timescale"
# counts calls and times the outermost time-scale call, "recursive" spans the
# outermost call and counts every node, "span" records a span per call.
TARGETS = (
    ("fuzzyts.fuzzy:FuzzyNumber.__post_init__", "count", "fuzzy.FuzzyNumber.constructed"),
    *((f"fuzzyts.fuzzy:{k}", "count", f"fuzzy.{k}.calls") for k in KERNELS),
    ("fuzzyts.timescale:TimeScale.mu", "timescale", "timescale.mu.calls"),
    ("fuzzyts.timescale:TimeScale.index_of", "timescale", "timescale.index_of.calls"),
    ("fuzzyts.timescale:TimeScale.sigma", "timescale", "timescale.sigma.calls"),
    ("fuzzyts.timescale:TimeScale.is_right_dense", "timescale", "timescale.is_right_dense.calls"),
    ("fuzzyts.hybrid:solve", "span", "hybrid.solve"),
    # solve calls the name it imported from hukuhara; other callers use hukuhara's
    ("fuzzyts.hybrid:delta_h_derivative", "span", "hukuhara.delta_h_derivative"),
    ("fuzzyts.hukuhara:delta_h_derivative", "span", "hukuhara.delta_h_derivative"),
    ("fuzzyts.stability:_check_sandwich", "span", "stability.sandwich"),
    ("fuzzyts.stability:_check_lipschitz", "span", "stability.lipschitz"),
    ("fuzzyts.stability:check_monotonicity_hypothesis", "span", "stability.monotonicity"),
    ("fuzzyts.stability:_check_condition_ii", "span", "stability.condition_ii"),
    ("fuzzyts.stability:_comparison_route", "span", "stability.comparison_route"),
    ("fuzzyts.stability:_simulate_direct", "span", "stability.direct.simulate"),
    ("fuzzyts.stability:_direct_route", "span", "stability.direct"),
    ("fuzzyts.stability:Witness.__init__", "count", "stability.witnesses"),
    ("fuzzyts.comparison:solve_comparison", "span", "comparison.solve_comparison"),
    ("fuzzyts.dsl:eval_fuzzy", "recursive", "dsl.eval_fuzzy"),
    ("fuzzyts.dsl:eval_scalar", "recursive", "dsl.eval_scalar"),
    *((f"fuzzyts.io:{fn}", "span", "io.write") for fn in (
        "write_trajectory_csv", "write_scalar_csv", "write_comparison_csv",
        "write_derivative_csv", "write_json")),
    ("fuzzyts.cli:build_bundle", "span", "cli.build_bundle"),
)


def _add_count(tracer: Tracer, key: str, measure):
    """Hook that adds ``measure(args, kwargs, result, exc)`` to a count."""
    tracer.counts.setdefault(key, 0)
    tracer.present.add(key)

    def on_exit(args, kwargs, result, exc):
        try:
            tracer.counts[key] += measure(args, kwargs, result, exc)
        except Exception as e:  # a changed signature must not fail the traced run
            tracer.absent[key] = repr(e)

    return on_exit


def _solve_steps(args, kwargs, result, exc):
    if exc is None:
        return len(result) - 1
    # a failed solve completed every step before the instant it failed at
    system = args[0] if args else kwargs["sys"]
    return bisect.bisect_left(system.ts.points, exc.t) if hasattr(exc, "t") else 0


HOOKS = {
    "hybrid.solve": lambda tr: _add_count(tr, "hybrid.solve.steps", _solve_steps),
    "comparison.solve_comparison": lambda tr: _add_count(
        tr, "comparison.solve_comparison.steps",
        lambda a, k, result, exc: len(result) - 1 if exc is None else 0),
    "stability.condition_ii": lambda tr: _add_count(
        tr, "stability.condition_ii.steps",
        lambda a, k, result, exc: result["checked_steps"] if exc is None else 0),
    "io.write": lambda tr: _add_count(
        tr, "io.bytes", lambda a, k, result, exc: os.path.getsize(a[0]) if exc is None else 0),
}


def _count(key: str, unit: str = "count", wrapper: str | None = None):
    """A metric that is the count ``key``, kept by the wrapper or hook of that
    name unless another ``wrapper`` keeps it."""
    return unit, {wrapper or key}, lambda t: t.counts.get(key, 0)


def _span(name: str, field: str, parent: str | None = None, needs: tuple = ()):
    """A metric that is a total over spans (see ``Totals.span``); times are in s.
    A parent, or a span whose self time depends on children, needs them wrapped too."""
    unit = "s" if field.endswith("_ns") else "count"
    scale = NS if unit == "s" else 1
    keys = {name, *([parent] if parent else []), *needs}
    return unit, keys, lambda t: t.span(name, field, parent) * scale


def _ns_per_step(t: Totals) -> float:
    steps = t.counts.get("hybrid.solve.steps", 0)
    return t.span("hybrid.solve", "dur_ns") / steps if steps else 0.0


# Every metric the tracer computes, in report order: name -> (unit, the keys
# it is computed from, how).  A metric with a key that has no installed
# wrapper, or whose counting hook failed, is reported absent instead of wrong.
METRICS = {
    **{name: _count(name) for name in ("fuzzy.FuzzyNumber.constructed",
                                       *(f"fuzzy.{k}.calls" for k in KERNELS))},
    "hybrid.solve.calls": _span("hybrid.solve", "calls"),
    "hybrid.solve.steps": _count("hybrid.solve.steps"),
    "hybrid.solve.failures": _span("hybrid.solve", "failed"),
    "hybrid.solve.self_s": _span("hybrid.solve", "self_ns"),
    "hybrid.solve.ns_per_step": ("ns", {"hybrid.solve", "hybrid.solve.steps"}, _ns_per_step),
    "hybrid.residual.s": _span("hukuhara.delta_h_derivative", "dur_ns", "hybrid.solve"),
    "hukuhara.delta_h_derivative.calls": _span("hukuhara.delta_h_derivative", "calls"),
    "hukuhara.delta_h_derivative.s": _span("hukuhara.delta_h_derivative", "dur_ns"),
    **{f"stability.{k}.s": _span(f"stability.{k}", "dur_ns") for k in HYPOTHESIS_CHECKS},
    "stability.condition_ii.steps": _count("stability.condition_ii.steps"),
    "stability.direct.simulate.s": _span("stability.direct.simulate", "dur_ns"),
    "stability.direct.bounds.s": _span("stability.direct", "self_ns",
                                       needs=("stability.direct.simulate", "hybrid.solve")),
    "stability.direct.probe_solves": _span("hybrid.solve", "calls", "stability.direct"),
    "stability.direct.probe.s": _span("hybrid.solve", "dur_ns", "stability.direct"),
    "stability.direct.skips": _span("hybrid.solve", "failed", "stability.direct.simulate"),
    "stability.witnesses": _count("stability.witnesses"),
    "comparison.solve_comparison.calls": _span("comparison.solve_comparison", "calls"),
    "comparison.solve_comparison.steps": _count("comparison.solve_comparison.steps"),
    "comparison.solve_comparison.s": _span("comparison.solve_comparison", "dur_ns"),
    "timescale.mu.calls": _count("timescale.mu.calls"),
    "timescale.index_of.calls": _count("timescale.index_of.calls"),
    "timescale.s": ("s", {"timescale.mu.calls", "timescale.index_of.calls"},
                    lambda t: t.timers_ns.get("timescale", 0) * NS),
    "dsl.eval_fuzzy.nodes": _count("dsl.eval_fuzzy.nodes", wrapper="dsl.eval_fuzzy"),
    "dsl.eval_fuzzy.s": _span("dsl.eval_fuzzy", "dur_ns"),
    "dsl.eval_scalar.nodes": _count("dsl.eval_scalar.nodes", wrapper="dsl.eval_scalar"),
    "dsl.eval_scalar.s": _span("dsl.eval_scalar", "dur_ns"),
    "io.write.s": _span("io.write", "dur_ns"),
    "io.bytes": _count("io.bytes", "bytes"),
    "cli.build_bundle.s": _span("cli.build_bundle", "dur_ns"),
    **{f"{layer}.self_s": ("s", set(), lambda t, layer=layer: t.layer_self_ns[layer] * NS)
       for layer in LAYERS},
}

# Every per-layer metric with its unit: the tracer's, then the kernel timings
# (``child.py micro``) and the tracer overhead (``run.py``).
UNITS = {
    **{name: unit for name, (unit, _, _) in METRICS.items()},
    **{f"fuzzy.{k}.ns": "ns" for k in KERNELS},
    "trace.overhead": "ratio",
}
