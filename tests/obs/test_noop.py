"""The no-op sink: default state, configure/disable, and overhead."""

from __future__ import annotations

import timeit

import repro.obs as obs
from repro.obs import NULL_REGISTRY, NULL_TRACE, NULL_TRACER, MetricsRegistry


class TestGlobalState:
    def test_default_sink_is_null(self):
        sink = obs.get_obs()
        assert sink.enabled is False
        assert sink.metrics is NULL_REGISTRY
        assert sink.tracer is NULL_TRACER

    def test_configure_then_disable_round_trip(self):
        sink = obs.configure(log_level=None)
        try:
            assert obs.get_obs() is sink
            assert sink.enabled is True
            assert isinstance(sink.metrics, MetricsRegistry)
            assert sink.metrics is not NULL_REGISTRY
        finally:
            obs.disable()
        assert obs.get_obs().metrics is NULL_REGISTRY

    def test_halves_are_independently_selectable(self):
        try:
            sink = obs.configure(metrics=True, tracing=False, log_level=None)
            assert sink.metrics is not NULL_REGISTRY
            assert sink.tracer is NULL_TRACER
            sink = obs.configure(metrics=False, tracing=True, log_level=None)
            assert sink.metrics is NULL_REGISTRY
            assert sink.tracer is not NULL_TRACER
        finally:
            obs.disable()

    def test_trace_event_without_current_trace_is_safe(self):
        # No ambient "current" trace exists: components are handed the
        # query's trace, and the default they are handed is inert.
        sink = obs.get_obs()
        assert not hasattr(sink, "current_trace")
        assert not hasattr(sink.tracer, "current")
        NULL_TRACE.event("calibration_lookup", 0.0, server="S1")
        assert NULL_TRACE.spans == [] and NULL_TRACE.span_count == 0


class TestNullSinkBehaviour:
    def test_null_sink_accepts_the_full_hot_path_surface(self):
        sink = obs.get_obs()
        sink.metrics.counter("ii_queries_total").inc()
        sink.metrics.histogram("ii_response_ms", server="S1").observe(3.0)
        sink.metrics.gauge("server_up", server="S1").set(1.0)
        trace = sink.tracer.start(1, "SELECT 1", 0.0)
        span = trace.begin("dispatch", 0.0, server="S1")
        trace.end(span, 1.0, observed_ms=1.0)
        sink.tracer.finish(trace, 1.0)
        assert sink.metrics.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }
        assert sink.tracer.last() is None

    def test_null_sink_overhead_is_small(self):
        """One null instrumentation round must stay in the sub-µs range.

        A federated query makes on the order of ten observation calls;
        this guards against the null path accidentally growing real work
        (allocation, formatting, sample storage).  The bound is loose —
        it catches order-of-magnitude regressions, not jitter.
        """
        sink = obs.get_obs()

        def one_round():
            sink.metrics.counter("ii_queries_total").inc()
            sink.metrics.histogram("ii_response_ms").observe(1.0)
            trace = sink.tracer.start(1, "q", 0.0)
            span = trace.begin("dispatch", 0.0)
            trace.end(span, 1.0)
            sink.tracer.finish(trace, 1.0)

        rounds = 2000
        seconds = min(
            timeit.repeat(one_round, number=rounds, repeat=3)
        )
        per_round_us = seconds / rounds * 1e6
        assert per_round_us < 50.0, f"null sink round took {per_round_us:.1f}µs"
