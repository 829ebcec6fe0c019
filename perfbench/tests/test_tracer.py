import json
import subprocess
import sys

import tracer
from conftest import BENCH, SRC


def span(name, start, end, parent=-1):
    return [name, start, end, parent, False]


def test_self_time_subtracts_union_of_children():
    spans = [
        span("root", 0, 100),
        span("a", 10, 40, 0),
        span("a.child", 15, 20, 1),
        span("b", 30, 60, 0),  # overlaps a: the overlap is covered once
        span("c", 90, 120, 0),  # runs past its parent: only 90..100 counts
    ]
    assert tracer.self_times(spans) == [100 - 60, 30 - 5, 5, 30, 30]


def test_self_time_ignores_child_order():
    ordered = [span("p", 0, 50), span("x", 5, 10, 0), span("y", 20, 30, 0)]
    shuffled = [span("p", 0, 50), span("y", 20, 30, 0), span("x", 5, 10, 0)]
    assert tracer.self_times(ordered)[0] == tracer.self_times(shuffled)[0] == 35


def test_outer_span_counts_every_node_and_spans_the_outermost_call():
    t = tracer.Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = t.outer_span("dsl.eval_fuzzy", depth)
    assert wrapped(4) == 4
    assert t.counts["dsl.eval_fuzzy.nodes"] == 5
    assert [s[0] for s in t.spans] == ["dsl.eval_fuzzy"]


def test_span_records_parent_and_failure():
    t = tracer.Tracer()

    def fail():
        raise ValueError("boom")

    inner = t.span("hybrid.solve", fail)
    outer = t.span("stability.direct", lambda: inner())
    try:
        outer()
    except ValueError:
        pass
    (o, i) = t.spans
    assert i[3] == 0 and i[4] and o[4]
    assert o[1] <= i[1] <= i[2] <= o[2]


def test_missing_target_is_absent_not_fatal():
    # a later refactor may delete a wrapped name; the run must go on without it
    script = (
        "import json, fuzzyts.stability as s\n"
        "del s._check_condition_ii\n"
        "import tracer\n"
        "t = tracer.Tracer(); t.install()\n"
        "print(json.dumps({'metrics': sorted(t.metrics()), 'absent': sorted(t.absent)}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], check=True, capture_output=True,
                         text=True, env={"PYTHONPATH": f"{BENCH}:{SRC}"}).stdout
    result = json.loads(out)
    assert result["absent"] == ["fuzzyts.stability:_check_condition_ii"]
    assert "stability.condition_ii.s" not in result["metrics"]
    assert "stability.condition_ii.steps" not in result["metrics"]
    assert "stability.sandwich.s" in result["metrics"]


def test_failing_count_hook_marks_only_its_metric_absent():
    t = tracer.Tracer()
    t.present.add("comparison.solve_comparison")
    hook = tracer.HOOKS["comparison.solve_comparison"](t)
    hook((), {}, object(), None)  # a result without a length
    names = t.metrics()
    assert "comparison.solve_comparison.steps" not in names
    assert "comparison.solve_comparison.calls" in names
