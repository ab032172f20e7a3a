"""ServerQueue lifecycle hooks: emission order and the
zero-extra-events guarantee of the observer path."""

from repro.sim.sched import (
    EventScheduler,
    QueueEvents,
    ServerQueue,
)


class Recorder(QueueEvents):
    """Collects every hook call with its virtual timestamp."""

    def __init__(self):
        self.calls = []

    def on_enqueue(self, queue, job, t_ms):
        self.calls.append(("enqueue", queue.name, job.tag, t_ms))

    def on_complete(self, queue, job, completion):
        self.calls.append(("complete", queue.name, job.tag, completion))

    def on_cancel(self, queue, job, t_ms, consumed_ms):
        self.calls.append(("cancel", queue.name, job.tag, t_ms, consumed_ms))

    def of(self, kind):
        return [c for c in self.calls if c[0] == kind]


def _queue(events=None):
    sched = EventScheduler()
    queue = ServerQueue("S1", sched, capacity=1.0)
    if events is not None:
        queue.events = events
    return sched, queue


class TestPsHooks:
    def test_idle_submission_starts_immediately(self):
        rec = Recorder()
        sched, queue = _queue(rec)
        done = []
        queue.submit(10.0, done.append, tag="j1")
        # Enqueue is emitted synchronously at submit time, and it is the
        # start of service too: an idle server serves from the arrival.
        assert rec.calls == [("enqueue", "S1", "j1", 0.0)]
        sched.run()
        assert [c[0] for c in rec.calls] == ["enqueue", "complete"]
        completion = rec.of("complete")[0][3]
        assert completion.wait_ms == 0.0
        assert completion.service_ms == 10.0

    def test_cancel_in_service_reports_consumed_ms(self):
        rec = Recorder()
        sched, queue = _queue(rec)
        running = queue.submit(10.0, lambda c: None, tag="running")
        sched.call_at(4.0, queue.cancel, running)
        sched.run()
        cancel = rec.of("cancel")[0]
        assert cancel[3] == 4.0
        assert cancel[4] == 4.0  # four ms of dedicated service burned
        assert rec.of("complete") == []

    def test_enqueue_and_start_are_simultaneous(self):
        rec = Recorder()
        sched, queue = _queue(rec)
        done = []
        sched.call_at(0.0, queue.submit, 10.0, done.append, "a")
        sched.call_at(2.0, queue.submit, 10.0, done.append, "b")
        sched.run()
        # PS shares capacity from the first instant: the enqueue hook,
        # at the arrival instant, is the only start there is.
        assert [(c[2], c[3]) for c in rec.of("enqueue")] == [
            ("a", 0.0),
            ("b", 2.0),
        ]
        for call in rec.of("complete"):
            completion = call[3]
            assert completion.wait_ms + completion.service_ms == (
                completion.sojourn_ms
            )

    def test_cancel_reports_shared_service_consumed(self):
        rec = Recorder()
        sched, queue = _queue(rec)
        victim = queue.submit(10.0, lambda c: None, tag="victim")
        sched.call_at(0.0, queue.submit, 10.0, lambda c: None, "other")
        sched.call_at(6.0, queue.cancel, victim)
        sched.run()
        cancel = rec.of("cancel")[0]
        # Two residents sharing for 6ms: the victim consumed 3ms.
        assert cancel[3] == 6.0
        assert cancel[4] == 3.0


class TestDisabledPath:
    def test_null_observer_arms_no_extra_scheduler_events(self):
        """The zero-overhead contract is structural: hooks observe,
        they never schedule.  A queue arms one departure event per
        arrival and one per departure that leaves residents behind,
        with the null observer (the default) and a live one alike."""

        def run(events):
            sched = EventScheduler()
            armed = 0
            original = sched.call_at

            def counting(t_ms, fn, *args):
                nonlocal armed
                armed += 1
                return original(t_ms, fn, *args)

            sched.call_at = counting
            queue = ServerQueue("S1", sched, capacity=1.0)
            if events is not None:
                queue.events = events
            done = []
            for _ in range(5):
                queue.submit(10.0, done.append)
            sched.run()
            assert len(done) == 5
            return armed

        assert run(None) == 9
        assert run(Recorder()) == 9

    def test_tag_defaults_to_none_and_passes_through(self):
        rec = Recorder()
        sched, queue = _queue(rec)
        tag = object()
        queue.submit(1.0, lambda c: None, tag=tag)
        queue.submit(1.0, lambda c: None)
        sched.run()
        assert rec.of("enqueue")[0][2] is tag
        assert rec.of("enqueue")[1][2] is None
