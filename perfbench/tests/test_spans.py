"""Self-time arithmetic and span-tree checks on hand-built span trees."""
import pytest

from spans import Tracer, self_times, tree_errors


def span(name, start, end, parent, run="0:0"):
    return [name, start, end, parent, run]


def test_self_time_subtracts_children():
    spans = [
        span("pipeline.run_pipeline", 0.0, 10.0, None),  # 0
        span("simulate.render", 0.5, 1.5, 0),            # 1
        span("graph.optimize", 2.0, 9.0, 0),             # 2
        span("graph.linearize", 2.5, 5.0, 2),            # 3
        span("graph.solve", 5.0, 5.5, 2),                # 4
        span("graph.cost_eval", 6.0, 8.0, 2),            # 5
    ]
    assert self_times(spans) == pytest.approx([10.0 - 1.0 - 7.0, 1.0, 7.0 - 5.0, 2.5, 0.5, 2.0])
    assert tree_errors(spans) == []


def test_self_time_counts_overlapping_children_once():
    spans = [span("a", 0.0, 4.0, None), span("b", 1.0, 3.0, 0), span("c", 2.0, 3.5, 0),
             span("d", 3.8, 5.0, 0)]  # d leaves its parent
    assert self_times(spans)[0] == pytest.approx(4.0 - (3.5 - 1.0) - 0.2)
    assert tree_errors(spans) == ["span 3 (d) leaves its parent 0"]


def test_self_times_sum_to_root_duration():
    spans = [span("root", 0.0, 8.0, None), span("x", 1.0, 4.0, 0), span("y", 1.5, 2.0, 1),
             span("z", 5.0, 7.0, 0)]
    assert sum(self_times(spans)) == pytest.approx(8.0)


def test_tracer_records_nesting_and_restores_patches():
    class Box:
        @staticmethod
        def outer(x):
            return Box.inner(x) + 1

        @staticmethod
        def inner(x):
            return 2 * x

    original_outer, original_inner = Box.outer, Box.inner
    with Tracer() as tracer:
        tracer.run_id = "0:0"
        tracer.patch(Box, "outer", "layer.outer")
        tracer.patch(Box, "inner", "layer.inner",
                     count=lambda counters, args, result: counters.update(calls=1))
        assert Box.outer(3) == 7
    assert (Box.outer, Box.inner) == (original_outer, original_inner)
    names = [s[0] for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == "0:0"
    assert tracer.counters["calls"] == 1
    assert tree_errors(tracer.spans) == []
    assert all(t >= 0 for t in self_times(tracer.spans))


def test_only_under_skips_calls_from_elsewhere():
    class Box:
        @staticmethod
        def solve():
            return 1

        @staticmethod
        def optimize():
            return Box.solve()

    with Tracer() as tracer:
        tracer.patch(Box, "solve", "graph.solve", only_under="graph.optimize")
        tracer.patch(Box, "optimize", "graph.optimize")
        Box.solve()
        Box.optimize()
    assert [s[0] for s in tracer.spans] == ["graph.optimize", "graph.solve"]
