"""Queue spans and the exact latency decomposition."""

from repro.obs.flight import (
    cancel_queue_spans,
    decompose_trace,
    open_queue_spans,
    settle_queue_spans,
)
from repro.obs.trace import NULL_SPAN, NULL_TRACE, QueryTrace
from repro.sim.sched import Completion


def _trace_with_dispatch():
    trace = QueryTrace(1, "sql", 0.0)
    root = trace.begin("query", 0.0)
    dispatch = trace.begin_child(root, "dispatch", 10.0, server="S1")
    return trace, root, dispatch


def _completion(queued, wait, service, contended=True):
    # wait is the primitive: a contended completion's finished instant
    # reconstructs as queued + (wait + service) in that order.
    return Completion(
        queue="S1",
        queued_ms=queued,
        finished_ms=queued + (wait + service) if contended else (
            queued + service
        ),
        demand_ms=service,
        service_ms=service,
        depth_at_arrival=3,
        contended=contended,
    )


class TestQueueSpans:
    def test_settled_spans_snap_to_wait_and_service(self):
        trace, _, dispatch = _trace_with_dispatch()
        spans = open_queue_spans(trace, dispatch, "S1", 10.0)
        settle_queue_spans(spans, _completion(10.0, 4.0, 6.0))

        (wait,) = trace.find("queue_wait")
        (service,) = trace.find("service")
        assert spans == (wait, service)
        assert dispatch.children == [wait, service]
        assert wait.attributes["server"] == service.attributes["server"] == "S1"
        assert (wait.start_ms, wait.end_ms) == (10.0, 14.0)
        assert (service.start_ms, service.end_ms) == (14.0, 20.0)
        assert wait.attributes["wait_ms"] == 4.0
        assert wait.attributes["depth_at_arrival"] == 3
        assert service.attributes["service_ms"] == 6.0
        # The bit-exact identity the whole layer is built on.
        assert (
            wait.attributes["wait_ms"] + service.attributes["service_ms"]
            == service.attributes["sojourn_ms"]
        )

    def test_ps_completion_rewrites_provisional_boundary(self):
        # Under PS service starts at the arrival instant; the logical
        # wait/service split only exists at completion and must
        # overwrite the provisional zero-width wait span.
        trace, _, dispatch = _trace_with_dispatch()
        spans = open_queue_spans(trace, dispatch, "S1", 10.0)
        wait, service = spans
        assert (wait.start_ms, wait.end_ms) == (10.0, 10.0)
        assert (service.start_ms, service.end_ms) == (10.0, None)
        settle_queue_spans(spans, _completion(10.0, 5.0, 6.0))
        assert (wait.start_ms, wait.end_ms) == (10.0, 15.0)
        assert (service.start_ms, service.end_ms) == (15.0, 21.0)

    def test_cancel_marks_spans_and_records_consumed(self):
        trace, _, dispatch = _trace_with_dispatch()
        spans = open_queue_spans(trace, dispatch, "S1", 10.0)
        cancel_queue_spans(spans, 15.0, consumed_ms=3.0)
        wait, service = spans
        assert (wait.start_ms, wait.end_ms) == (10.0, 10.0)
        assert wait.attributes == {"server": "S1", "cancelled": True}
        assert service.attributes == {
            "server": "S1",
            "cancelled": True,
            "consumed_ms": 3.0,
        }
        assert service.end_ms == 15.0

    def test_untraced_work_opens_no_spans(self):
        # The null trace hands back null spans, and the strategies pass
        # None for untraced work: neither records anything.
        assert open_queue_spans(NULL_TRACE, NULL_SPAN, "S1", 0.0) == (
            NULL_SPAN,
            NULL_SPAN,
        )
        settle_queue_spans(None, _completion(0.0, 0.0, 1.0, False))
        cancel_queue_spans(None, 1.0, 0.0)
        settle_queue_spans((NULL_SPAN, NULL_SPAN), _completion(0.0, 1.0, 1.0))
        cancel_queue_spans((NULL_SPAN, NULL_SPAN), 1.0, 0.5)
        assert NULL_SPAN.attributes == {}
        assert NULL_SPAN.end_ms is None


class TestDecomposeTrace:
    def _completed_trace(self, hedge_extra=0.0):
        trace = QueryTrace(1, "sql", 0.0)
        root = trace.begin("query", 0.0)
        pre = 3.7
        wait, service = 11.3, 29.9
        remote = (wait + service) + hedge_extra
        merge = 5.1
        response = (pre + remote) + merge
        dispatch = trace.begin_child(
            root, "dispatch", pre, server="S1",
            observed_ms=remote, queue_wait_ms=wait, service_ms=service,
            sojourn_ms=wait + service,
        )
        trace.end(dispatch, pre + remote)
        trace.end(
            root,
            response,
            status="completed",
            pre_dispatch_ms=pre,
            remote_ms=remote,
            merge_ms=merge,
            response_ms=response,
        )
        trace.finish(response)
        return trace, response

    def test_components_recombine_bit_exactly(self):
        trace, response = self._completed_trace()
        out = decompose_trace(trace)
        assert out["status"] == "completed"
        assert out["exact"] is True
        assert out["total_ms"] == response
        assert out["hedge_extra_ms"] == 0.0

    def test_hedged_critical_path_reports_extra(self):
        trace, response = self._completed_trace(hedge_extra=2.5)
        out = decompose_trace(trace)
        assert out["hedge_extra_ms"] == 2.5
        assert out["exact"] is True

    def test_critical_fragment_is_the_slowest(self):
        trace = QueryTrace(1, "sql", 0.0)
        root = trace.begin("query", 0.0)
        for wait, service in ((1.0, 2.0), (10.0, 20.0)):
            trace.begin_child(
                root, "dispatch", 0.0, server="S1",
                observed_ms=wait + service, queue_wait_ms=wait,
                service_ms=service, sojourn_ms=wait + service,
            )
        response = (0.0 + 30.0) + 0.0
        trace.end(
            root, response, status="completed", pre_dispatch_ms=0.0,
            remote_ms=30.0, merge_ms=0.0, response_ms=response,
        )
        out = decompose_trace(trace)
        assert out["queue_wait_ms"] == 10.0
        assert out["service_ms"] == 20.0

    def test_shed_trace_reports_status_and_reason(self):
        trace = QueryTrace(1, "sql", 0.0)
        root = trace.begin("query", 0.0)
        trace.end(root, 0.0, status="shed", reason="no-tokens")
        trace.finish(0.0, status="shed")
        assert decompose_trace(trace) == {
            "status": "shed",
            "reason": "no-tokens",
        }

    def test_trace_without_query_span_reports_trace_status(self):
        trace = QueryTrace(1, "sql", 0.0)
        assert decompose_trace(trace) == {"status": "running"}
