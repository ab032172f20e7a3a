"""Queue-hook span recording and the exact latency decomposition."""

from types import SimpleNamespace

from repro.obs.flight import QueueSpanRecorder, SpanTag, decompose_trace
from repro.obs.trace import QueryTrace
from repro.sim.sched import Completion


def _trace_with_dispatch():
    trace = QueryTrace(1, "sql", 0.0)
    root = trace.begin("query", 0.0)
    dispatch = trace.begin_child(root, "dispatch", 10.0, server="S1")
    return trace, root, dispatch


def _job(tag):
    return SimpleNamespace(tag=tag)


QUEUE = SimpleNamespace(name="S1")


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


class TestQueueSpanRecorder:
    def test_lifecycle_emits_snapped_wait_and_service(self):
        trace, _, dispatch = _trace_with_dispatch()
        recorder = QueueSpanRecorder()
        job = _job(SpanTag(trace, dispatch))
        recorder.on_enqueue(QUEUE, job, 10.0)
        completion = _completion(10.0, 4.0, 6.0)
        recorder.on_complete(QUEUE, job, completion)

        (wait,) = trace.find("queue_wait")
        (service,) = trace.find("service")
        assert dispatch.children == [wait, service]
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
        recorder = QueueSpanRecorder()
        job = _job(SpanTag(trace, dispatch))
        recorder.on_enqueue(QUEUE, job, 10.0)
        (wait,) = trace.find("queue_wait")
        (service,) = trace.find("service")
        assert (wait.start_ms, wait.end_ms) == (10.0, 10.0)
        assert (service.start_ms, service.end_ms) == (10.0, None)
        recorder.on_complete(QUEUE, job, _completion(10.0, 5.0, 6.0))
        (wait,) = trace.find("queue_wait")
        (service,) = trace.find("service")
        assert (wait.start_ms, wait.end_ms) == (10.0, 15.0)
        assert (service.start_ms, service.end_ms) == (15.0, 21.0)

    def test_cancel_marks_spans_and_records_consumed(self):
        trace, _, dispatch = _trace_with_dispatch()
        recorder = QueueSpanRecorder()
        job = _job(SpanTag(trace, dispatch))
        recorder.on_enqueue(QUEUE, job, 10.0)
        recorder.on_cancel(QUEUE, job, 15.0, consumed_ms=3.0)
        (service,) = trace.find("service")
        assert service.attributes["cancelled"] is True
        assert service.attributes["consumed_ms"] == 3.0
        assert service.end_ms == 15.0
        # Terminal events drop the live entry: nothing further records.
        recorder.on_complete(QUEUE, job, _completion(10.0, 2.0, 5.0))
        assert len(trace.find("service")) == 1

    def test_untagged_jobs_are_ignored(self):
        recorder = QueueSpanRecorder()
        job = _job(None)
        recorder.on_enqueue(QUEUE, job, 0.0)
        recorder.on_complete(QUEUE, job, _completion(0.0, 0.0, 1.0, False))
        recorder.on_cancel(QUEUE, job, 1.0, 0.0)
        assert recorder._live == {}


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
