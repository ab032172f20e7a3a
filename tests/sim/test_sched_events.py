"""ServerQueue lifecycle as the span layer reads it: a job's completion
(handed to its callback) and the service a cancellation reports
(``cancel()``'s return value) carry everything its queue_wait and
service spans record."""

from repro.sim.sched import EventScheduler, ServerQueue


def _queue():
    sched = EventScheduler()
    return sched, ServerQueue("S1", sched, capacity=1.0)


class TestPsHooks:
    def test_idle_submission_starts_immediately(self):
        sched, queue = _queue()
        done = []
        queue.submit(10.0, done.append)
        sched.run()
        # An idle server serves from the arrival instant: no wait.
        (completion,) = done
        assert completion.queued_ms == 0.0
        assert completion.wait_ms == 0.0
        assert completion.service_ms == 10.0
        assert completion.finished_ms == 10.0

    def test_cancel_in_service_reports_consumed_ms(self):
        sched, queue = _queue()
        done, consumed = [], []
        running = queue.submit(10.0, done.append)
        sched.call_at(4.0, lambda: consumed.append(queue.cancel(running)))
        sched.run()
        assert consumed == [4.0]  # four ms of dedicated service burned
        assert done == []
        assert queue.cancelled_jobs == 1

    def test_enqueue_and_start_are_simultaneous(self):
        sched, queue = _queue()
        done = []
        sched.call_at(0.0, queue.submit, 10.0, done.append)
        sched.call_at(2.0, queue.submit, 10.0, done.append)
        sched.run()
        # PS shares capacity from the first instant: each completion's
        # queued instant is its arrival, the only start there is, and
        # its wait/service split adds back to the sojourn exactly.
        assert sorted(c.queued_ms for c in done) == [0.0, 2.0]
        for completion in done:
            assert completion.contended
            assert completion.wait_ms + completion.service_ms == (
                completion.sojourn_ms
            )

    def test_cancel_reports_shared_service_consumed(self):
        sched, queue = _queue()
        consumed = []
        victim = queue.submit(10.0, lambda c: None)
        sched.call_at(0.0, queue.submit, 10.0, lambda c: None)
        sched.call_at(6.0, lambda: consumed.append(queue.cancel(victim)))
        sched.run()
        # Two residents sharing for 6ms: the victim consumed 3ms.
        assert consumed == [3.0]
