"""Explicit-parent spans and the span-capacity drop accounting."""

import repro.obs as obs
from repro.obs.trace import NULL_SPAN, QueryTrace, Tracer


class TestBeginChild:
    def test_attaches_to_explicit_parent_not_stack(self):
        trace = QueryTrace(1, "sql", 0.0)
        root = trace.begin("query", 0.0)
        a = trace.begin_child(root, "dispatch", 1.0, server="S1")
        b = trace.begin_child(root, "dispatch", 1.0, server="S2")
        # Concurrent siblings: both under root, neither on the stack —
        # a stack-nested begin() still lands under root, not under b.
        nested = trace.begin("merge", 5.0)
        assert root.children == [a, b, nested]
        trace.end(nested, 6.0)
        trace.end(b, 7.0)
        trace.end(a, 8.0)
        assert (a.end_ms, b.end_ms) == (8.0, 7.0)

    def test_end_of_child_leaves_stack_untouched(self):
        trace = QueryTrace(1, "sql", 0.0)
        root = trace.begin("query", 0.0)
        child = trace.begin_child(root, "dispatch", 1.0)
        trace.end(child, 2.0)
        # The stack still holds root: a new begin() nests under it.
        inner = trace.begin("merge", 3.0)
        assert inner in root.children

    def test_grandchildren_nest_under_explicit_parents(self):
        trace = QueryTrace(1, "sql", 0.0)
        root = trace.begin("query", 0.0)
        dispatch = trace.begin_child(root, "dispatch", 1.0)
        wait = trace.begin_child(dispatch, "queue_wait", 1.0)
        service = trace.begin_child(dispatch, "service", 3.0)
        assert dispatch.children == [wait, service]
        assert trace.find("queue_wait") == [wait]


class TestSpanCapacity:
    def test_overflow_returns_null_span_and_counts(self):
        trace = QueryTrace(1, "sql", 0.0, max_spans=2)
        a = trace.begin("a", 0.0)
        trace.begin_child(a, "b", 1.0)
        dropped = trace.begin("c", 2.0)
        assert dropped is NULL_SPAN
        assert trace.spans_dropped == 1
        assert trace.span_count == 2
        # Ending and annotating the null span is harmless.
        trace.end(dropped, 3.0, note="x")
        assert trace.to_dict()["spans_dropped"] == 1

    def test_child_of_dropped_parent_is_counted_too(self):
        trace = QueryTrace(1, "sql", 0.0, max_spans=1)
        trace.begin("a", 0.0)
        parent = trace.begin("b", 1.0)
        assert parent is NULL_SPAN
        child = trace.begin_child(parent, "c", 2.0)
        assert child is NULL_SPAN
        assert trace.spans_dropped == 2

    def test_events_respect_the_budget(self):
        trace = QueryTrace(1, "sql", 0.0, max_spans=1)
        trace.begin("a", 0.0)
        assert trace.event("e", 1.0) is NULL_SPAN
        assert trace.spans_dropped == 1

    def test_unlimited_when_max_spans_none(self):
        trace = QueryTrace(1, "sql", 0.0, max_spans=None)
        for i in range(100):
            trace.event("e", float(i))
        assert trace.spans_dropped == 0

    def test_tracer_aggregates_drops_and_feeds_counter(self):
        class Counter:
            value = 0

            def inc(self, amount=1.0):
                self.value += amount

        tracer = Tracer()
        tracer.max_spans = 1
        counter = Counter()
        tracer.drop_counter = counter
        trace = tracer.start(1, "sql", 0.0)
        trace.begin("a", 0.0)
        trace.begin("b", 1.0)
        trace.event("c", 2.0)
        assert trace.spans_dropped == 2
        assert tracer.spans_dropped == 2
        assert counter.value == 2

    def test_configure_wires_trace_spans_dropped_total(self):
        sink = obs.configure(metrics=True, tracing=True, log_level=None)
        try:
            tracer = sink.tracer
            assert tracer.drop_counter is not None
            tracer.max_spans = 1
            trace = tracer.start(7, "sql", 0.0)
            trace.begin("a", 0.0)
            trace.begin("b", 1.0)
            assert (
                sink.metrics.counter("trace_spans_dropped_total").value == 1
            )
        finally:
            obs.disable()
