"""Trace-span nesting, JSON export and tracer retention."""

from __future__ import annotations

import json

import repro.obs as obs
from repro.obs import NULL_TRACE, Tracer
from repro.obs.trace import NullTracer, QueryTrace


class TestSpanNesting:
    def test_begin_nests_under_open_span(self):
        trace = QueryTrace(1, "SELECT 1", 0.0)
        outer = trace.begin("plan_enumeration", 0.0)
        inner = trace.begin("calibration_lookup", 1.0, server="S1")
        trace.end(inner, 2.0)
        trace.end(outer, 3.0)
        assert trace.spans == [outer]
        assert outer.children == [inner]
        assert inner.attributes["server"] == "S1"
        assert inner.duration_ms == 1.0
        assert outer.duration_ms == 3.0

    def test_siblings_after_end(self):
        trace = QueryTrace(1, "q", 0.0)
        first = trace.begin("decompose", 0.0)
        trace.end(first, 1.0)
        second = trace.begin("route", 1.0)
        trace.end(second, 2.0)
        assert trace.spans == [first, second]
        assert first.children == []

    def test_event_is_zero_duration_child(self):
        trace = QueryTrace(1, "q", 0.0)
        span = trace.begin("dispatch", 0.0)
        event = trace.event("retry", 5.0, server="S2")
        trace.end(span, 9.0)
        assert span.children == [event]
        assert event.duration_ms == 0.0
        assert event.attributes == {"server": "S2"}

    def test_end_closes_orphaned_descendants(self):
        trace = QueryTrace(1, "q", 0.0)
        outer = trace.begin("outer", 0.0)
        trace.begin("inner", 1.0)  # never explicitly ended
        trace.end(outer, 4.0)
        # Closing the outer span pops the dangling inner one too.
        follow = trace.begin("next", 5.0)
        assert follow in trace.spans

    def test_finish_closes_everything(self):
        trace = QueryTrace(1, "q", 0.0)
        span = trace.begin("dispatch", 0.0)
        trace.finish(7.0, status="failed")
        assert span.end_ms == 7.0
        assert trace.status == "failed"
        assert trace.response_ms == 7.0

    def test_find_searches_recursively(self):
        trace = QueryTrace(1, "q", 0.0)
        trace.begin("plan_enumeration", 0.0)
        trace.event("calibration_lookup", 0.0, server="S1")
        trace.event("calibration_lookup", 0.0, server="S2")
        found = trace.find("calibration_lookup")
        assert [s.attributes["server"] for s in found] == ["S1", "S2"]


class TestJsonExport:
    def test_round_trips_through_json(self):
        trace = QueryTrace(3, "SELECT 1", 10.0)
        span = trace.begin("route", 10.0, servers=["S3"])
        trace.end(span, 11.0, estimated_total=4.2)
        trace.finish(12.0)
        payload = json.loads(trace.to_json())
        assert payload["query_id"] == 3
        assert payload["status"] == "completed"
        assert payload["response_ms"] == 2.0
        (route,) = payload["spans"]
        assert route["name"] == "route"
        assert route["attributes"]["estimated_total"] == 4.2


class TestTracer:
    def test_tracks_finished(self):
        tracer = Tracer(keep=2)
        trace = tracer.start(1, "q", 0.0)
        assert tracer.last() is None
        tracer.finish(trace, 5.0)
        assert tracer.last() is trace

    def test_has_no_ambient_trace(self):
        # A query's trace is passed to whoever annotates it; nothing is
        # "current", so nothing needs re-pointing after a yield.
        tracer = Tracer()
        tracer.start(1, "q", 0.0)
        assert not hasattr(tracer, "current")
        assert not hasattr(tracer, "resume")

    def test_retention_is_bounded(self):
        tracer = Tracer(keep=2)
        for query_id in range(1, 5):
            trace = tracer.start(query_id, "q", 0.0)
            tracer.finish(trace, 1.0)
        assert [t.query_id for t in tracer.finished] == [3, 4]

    def test_trace_capacity_is_configurable(self, live_obs):
        sink = obs.configure(log_level=None, trace_capacity=3)
        for query_id in range(1, 6):
            trace = sink.tracer.start(query_id, "q", 0.0)
            sink.tracer.finish(trace, 1.0)
        assert [t.query_id for t in sink.tracer.finished] == [3, 4, 5]


class TestNullTracer:
    def test_start_returns_shared_inert_trace(self):
        tracer = NullTracer()
        trace = tracer.start(1, "q", 0.0)
        assert trace is NULL_TRACE
        span = trace.begin("dispatch", 0.0, server="S1")
        trace.end(span, 1.0)
        trace.event("retry", 1.0)
        trace.finish(2.0)
        assert trace.spans == []
        assert trace.finished_ms is None
