import sys
import types

from perfbench.trace import Span, Tracer, self_times, span_cost


def _span(name, start, end, parent=None):
    span = Span(name, start, parent)
    span.end = end
    return span


class TestSelfTime:
    def test_leaf_self_time_is_duration(self):
        leaf = _span("a", 1.0, 3.5)
        assert self_times([leaf])[id(leaf)] == 2.5

    def test_overlapping_children_are_counted_once(self):
        parent = _span("p", 0.0, 10.0)
        first = _span("c", 1.0, 3.0, parent)
        second = _span("c", 2.0, 5.0, parent)
        third = _span("c", 7.0, 8.0, parent)
        selfs = self_times([parent, first, second, third])
        assert selfs[id(parent)] == 10.0 - (4.0 + 1.0)

    def test_child_outside_parent_is_clipped(self):
        parent = _span("p", 0.0, 4.0)
        child = _span("c", 3.0, 6.0, parent)
        assert self_times([parent, child])[id(parent)] == 3.0

    def test_grandchildren_only_reduce_their_parent(self):
        root = _span("r", 0.0, 10.0)
        child = _span("c", 2.0, 6.0, root)
        grandchild = _span("g", 3.0, 5.0, child)
        selfs = self_times([root, child, grandchild])
        assert selfs[id(root)] == 6.0
        assert selfs[id(child)] == 2.0
        assert selfs[id(grandchild)] == 2.0


class TestTracer:
    def test_nesting_sets_parent_trace_and_phase(self):
        tracer = Tracer()
        with tracer.span("cell", trace="t1"):
            with tracer.span("alloc", phase="allocate"):
                with tracer.span("solve"):
                    pass
        solve, alloc, cell = tracer.spans
        assert solve.parent is alloc and alloc.parent is cell
        assert solve.trace == "t1" and solve.phase == "allocate"
        assert cell.phase is None
        assert tracer.calls("solve", "allocate") == 1
        assert tracer.calls("solve", "validate") == 0

    def test_patch_everywhere_and_uninstall(self):
        def helper(x):
            return x + 1

        defining = types.ModuleType("repro._perfbench_probe_a")
        importer = types.ModuleType("repro._perfbench_probe_b")
        defining.helper = helper
        importer.bound = helper
        sys.modules[defining.__name__] = defining
        sys.modules[importer.__name__] = importer
        try:
            tracer = Tracer()
            wrapper = tracer.wrap("probe.helper", helper)
            assert tracer.patch_everywhere(helper, wrapper) == 2
            assert importer.bound(1) == 2 and defining.helper(2) == 3
            assert tracer.calls("probe.helper") == 2
            tracer.uninstall()
            assert importer.bound is helper and defining.helper is helper
        finally:
            del sys.modules[defining.__name__], sys.modules[importer.__name__]

    def test_write_reports_self_time(self, tmp_path):
        import json

        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = tmp_path / "trace.json"
        tracer.write(str(path), {"workload": "probe"})
        document = json.loads(path.read_text())
        assert document["summary"] == {"workload": "probe"}
        assert set(document["layers"]) == {"outer", "inner"}
        outer = document["layers"]["outer"]
        assert outer["self_s"] <= outer["total_s"]
        assert [s[0] for s in document["spans"]] == ["inner", "outer"]
        assert document["spans"][0][3] == 1  # inner's parent is outer


def test_span_cost_is_a_small_positive_time():
    cost = span_cost(calls=2000, repeats=3)
    assert 0 < cost < 1e-3
