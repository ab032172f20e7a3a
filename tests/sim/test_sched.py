"""Event scheduler and capacity queues: determinism, conservation,
processor-sharing sojourn shapes, and the one second-leg request."""

import sys

import pytest

from repro.sim.sched import (
    AllOf,
    Completion,
    Delay,
    EventScheduler,
    RacedWork,
    ServerQueue,
    Work,
)


def _worker(queue, demand_ms, log):
    completion = yield Work(queue, demand_ms)
    log.append(completion)


class TestEventScheduler:
    def test_equal_time_events_fire_in_scheduling_order(self):
        sched = EventScheduler()
        order = []
        sched.call_at(10.0, order.append, "first")
        sched.call_at(10.0, order.append, "second")
        sched.call_at(5.0, order.append, "earlier")
        sched.call_at(10.0, order.append, "third")
        sched.run()
        assert order == ["earlier", "first", "second", "third"]

    def test_run_returns_final_virtual_time(self):
        sched = EventScheduler()
        sched.call_at(123.5, lambda: None)
        assert sched.run() == 123.5

    def test_cannot_schedule_into_the_past(self):
        sched = EventScheduler()
        sched.call_at(100.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.call_at(50.0, lambda: None)

    def test_delay_and_allof_resume_processes(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        trail = []

        def process():
            yield Delay(5.0)
            trail.append(("woke", sched.now))
            completions = yield AllOf(
                [Work(queue, 10.0), Work(queue, 20.0), Delay(1.0)]
            )
            trail.append(("joined", sched.now))
            assert completions[2] is None  # plain delays carry no result
            assert all(
                isinstance(c, Completion) for c in completions[:2]
            )

        sched.spawn(process())
        sched.run()
        assert trail[0] == ("woke", 5.0)
        # PS over {10, 20}: sharing until the 10-unit job departs at
        # t=25, then the survivor's last 10 units run alone until 35.
        assert trail[1] == ("joined", 35.0)

    def test_spawn_at_defers_first_step(self):
        sched = EventScheduler()
        seen = []

        def process():
            seen.append(sched.now)
            yield Delay(0.0)

        sched.spawn(process(), at_ms=42.0)
        sched.run()
        assert seen == [42.0]

    def test_replay_is_deterministic(self):
        def drive():
            sched = EventScheduler()
            fast = ServerQueue("F", sched, capacity=2.0)
            slow = ServerQueue("P", sched, capacity=1.0)
            log = []
            for index in range(6):
                sched.spawn(
                    _worker(fast, 10.0 + index, log), at_ms=index * 3.0
                )
                sched.spawn(
                    _worker(slow, 8.0 + index, log), at_ms=index * 3.0
                )
            sched.run()
            return [
                (c.queue, c.queued_ms, c.finished_ms, c.sojourn_ms)
                for c in log
            ]

        assert drive() == drive()


class TestServerQueue:
    def test_capacity_conservation(self):
        """Total busy time == total demand / capacity, every job is
        served exactly once, and the queue drains empty."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=2.0)
        demands = [10.0, 4.0, 26.0, 8.0, 2.0]
        log = []
        for index, demand in enumerate(demands):
            sched.spawn(_worker(queue, demand, log), at_ms=index * 1.0)
        end = sched.run()
        assert len(log) == len(demands)
        assert queue.served == len(demands)
        assert queue.depth == 0
        assert queue.busy_ms == pytest.approx(
            sum(demands) / queue.capacity
        )
        # A single server can't finish faster than its capacity allows.
        assert end >= sum(demands) / queue.capacity

    def test_uncontended_sojourn_is_exactly_service_time(self):
        """The bit-exactness contract behind sequential equivalence: a
        lone job's sojourn must be ``demand / capacity`` exactly, even
        when the arrival instant has an awkward float representation."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=3.0)
        log = []
        sched.spawn(_worker(queue, 10.0, log), at_ms=0.1 + 0.2)  # 0.30000...4
        sched.run()
        (completion,) = log
        assert completion.contended is False
        assert completion.sojourn_ms == 10.0 / 3.0
        assert completion.wait_ms == 0.0

    def test_ps_shares_capacity_equally(self):
        """Two equal jobs arriving together each take twice their solo
        service time and finish simultaneously — the egalitarian-PS
        signature."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        log = []
        for _ in range(2):
            sched.spawn(_worker(queue, 10.0, log), at_ms=0.0)
        sched.run()
        assert [c.finished_ms for c in log] == [20.0, 20.0]
        assert all(c.contended for c in log)
        assert all(c.sojourn_ms == pytest.approx(20.0) for c in log)

    def test_ps_departure_ties_break_by_arrival_order(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        log = []
        for _ in range(3):
            sched.spawn(_worker(queue, 12.0, log), at_ms=0.0)
        sched.run()
        # Identical demands: all depart at 36 in submission order.
        assert [c.finished_ms for c in log] == [36.0, 36.0, 36.0]
        assert [c.depth_at_arrival for c in log] == [1, 2, 3]

    def test_backlog_ms_predicts_drain_time(self):
        sched = EventScheduler()
        queue = ServerQueue("P", sched, capacity=2.0)
        log = []
        sched.spawn(_worker(queue, 10.0, log), at_ms=0.0)
        sched.spawn(_worker(queue, 6.0, log), at_ms=0.0)
        sched.run(until_ms=0.0)
        assert queue.backlog_ms(0.0) == pytest.approx(8.0)
        sched.run()
        assert queue.backlog_ms(sched.now) == 0.0

    def test_max_depth_tracks_peak_concurrency(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        log = []
        for index in range(4):
            sched.spawn(_worker(queue, 5.0, log), at_ms=float(index))
        sched.run()
        assert queue.max_depth == 4

    def test_python_calls_do_not_grow_with_depth(self):
        """One ``backlog_ms`` plus one departure enter the same number
        of Python functions at depth 8 and at depth 800: every
        per-resident step is a single builtin pass (C calls are not
        ``call`` events), never a lambda or generator per resident."""

        def python_calls(depth):
            sched = EventScheduler()
            queue = ServerQueue("S", sched, capacity=2.0)
            done = []
            for index in range(depth):
                queue.submit(2.0 + index, done.append)
            # Every submit armed a departure the next one superseded;
            # let those fire (as no-ops) before counting.
            sched.run(until_ms=depth - 0.5)
            calls = []
            sys.setprofile(
                lambda frame, event, arg: event == "call" and calls.append(1)
            )
            try:
                queue.backlog_ms(sched.now)
                sched.run(until_ms=float(depth))  # the 1 ms head, shared
            finally:
                sys.setprofile(None)
            assert len(done) == 1 and queue.depth == depth - 1
            return len(calls)

        assert python_calls(8) == python_calls(800)

    def test_rejects_invalid_configuration(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            ServerQueue("S", sched, capacity=0.0)
        queue = ServerQueue("S", sched)
        with pytest.raises(ValueError):
            queue.submit(-1.0, lambda completion: None)
        with pytest.raises(ValueError):
            Work(queue, -2.0)
        with pytest.raises(ValueError):
            Delay(-1.0)


class TestCancellation:
    def test_ps_cancel_speeds_up_survivor(self):
        """Removing one of two PS residents doubles the survivor's rate."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        log = []
        jobs = {}

        def driver():
            jobs["a"] = queue.submit(10.0, log.append)
            jobs["b"] = queue.submit(10.0, log.append)
            yield Delay(4.0)
            # Both have burned 2ms of service (rate 1/2 each).
            wasted = queue.cancel(jobs["b"])
            assert wasted == pytest.approx(2.0)

        sched.spawn(driver())
        sched.run()
        assert len(log) == 1
        # Survivor: 2ms done at t=4, 8ms left at full rate -> t=12.
        assert log[0].finished_ms == pytest.approx(12.0)

    def test_equal_survivors_of_a_cancel_depart_in_arrival_order(self):
        """Three equal demands, the middle one cancelled: deleting from
        the middle must leave the survivors' remaining work aligned with
        their handles, and the tie still goes to the earlier arrival."""
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        log = []
        first, middle, last = (
            queue.submit(12.0, lambda c, name=name: log.append((name, c)))
            for name in ("first", "middle", "last")
        )
        sched.call_at(6.0, queue.cancel, middle)
        sched.run()
        # 2 ms each consumed by t=6, then 10 ms left for two: both at 26.
        assert [name for name, _ in log] == ["first", "last"]
        assert [c.finished_ms for _, c in log] == [26.0, 26.0]
        assert queue.busy_ms == 26.0 and queue.cancelled_jobs == 1
        assert queue.consumed_ms(first) == queue.consumed_ms(last) == 0.0

    def test_cancel_completed_or_cancelled_job_is_noop(self):
        sched = EventScheduler()
        queue = ServerQueue("S", sched, capacity=1.0)
        done = []
        job = queue.submit(5.0, done.append)
        sched.run()
        assert len(done) == 1
        assert queue.cancel(job) == 0.0  # already completed
        job2 = queue.submit(5.0, done.append)
        queue.cancel(job2)
        assert queue.cancel(job2) == 0.0  # already cancelled
        sched.run()
        assert len(done) == 1


TRIGGERS = ("timer", "interrupt", "both")
every_trigger = pytest.mark.parametrize("trigger", TRIGGERS)


class _Race:
    """One :class:`RacedWork` on its own scheduler.

    *trigger* picks what is armed: the timer (at ``at_ms``), the
    interrupt (the test fires it with :meth:`interrupt_at`), or both.
    Every ``second_leg`` call is logged as ``(t_ms, consumed_ms)``.
    """

    def __init__(self, trigger, primary_ms, second_ms, at_ms,
                 replaces=False, decline=False, sync=False):
        self.sched = EventScheduler()
        self.primary = ServerQueue("S1", self.sched)
        self.second = ServerQueue("S2", self.sched)
        self.second_ms = second_ms
        self.replaces = replaces
        self.decline = decline
        self.sync = sync
        self.calls = []
        self.disarmed = 0
        self.outcomes = []
        self._interrupt = None
        request = RacedWork(
            Work(self.primary, primary_ms),
            self.second_leg,
            after_ms=at_ms if trigger != "interrupt" else None,
            arm=self.arm if trigger != "timer" else None,
        )
        self.sched.spawn(self._process(request))

    def _process(self, request):
        self.outcomes.append((yield request))

    def second_leg(self, t_ms, consumed_ms):
        self.calls.append((t_ms, consumed_ms))
        if self.decline:
            return None
        return Work(self.second, self.second_ms), self.replaces

    def arm(self, interrupt):
        self._interrupt = interrupt
        if self.sync:
            interrupt()

        def disarm():
            self.disarmed += 1

        return disarm

    def interrupt_at(self, t_ms):
        self.sched.call_at(t_ms, lambda: self._interrupt())

    def run(self):
        self.sched.run()
        (outcome,) = self.outcomes
        return outcome


class TestRacedWork:
    """The one second-leg request, under each trigger kind.  With both
    armed the shared cases put the timer first, so their ``both`` runs
    are the *timer launches first → later interrupts ignored* ordering;
    the other combined orderings follow below."""

    def _race(self, trigger, *args, at_ms, **kwargs):
        race = _Race(trigger, *args, at_ms=at_ms, **kwargs)
        if trigger == "interrupt":
            race.interrupt_at(at_ms)
        elif trigger == "both":
            race.interrupt_at(at_ms + 1.0)
        return race

    @every_trigger
    def test_untriggered_race_is_a_plain_work(self, trigger):
        """A fast primary completes before any trigger fires: no second
        leg, and the completion is bit-identical to a plain Work."""
        race = self._race(trigger, 5.0, 5.0, at_ms=10.0)
        outcome = race.run()
        assert outcome.winner == "primary"
        assert outcome.fired_ms is None
        assert outcome.consumed_ms == 0.0
        assert outcome.completion.sojourn_ms == 5.0
        assert race.calls == []
        assert race.second.served == 0 and race.second.max_depth == 0
        # The interrupt is disarmed the moment the request settles.
        assert race.disarmed == (0 if trigger == "timer" else 1)

    @every_trigger
    @pytest.mark.parametrize("replaces", [False, True])
    def test_second_leg_settles_a_slow_primary(self, trigger, replaces):
        """The trigger fires at t=20 with the 100 ms primary pending; the
        10 ms second leg settles the request at t=30.  Raced, the
        primary runs on until it loses; replaced, it is cancelled at the
        launch instant."""
        race = self._race(trigger, 100.0, 10.0, at_ms=20.0, replaces=replaces)
        outcome = race.run()
        assert outcome.winner == "second"
        assert outcome.fired_ms == 20.0
        assert outcome.completion.finished_ms == 30.0
        assert outcome.consumed_ms == (20.0 if replaces else 30.0)
        # Only an interrupt peeks at the primary's consumed service.
        assert race.calls == [(20.0, 20.0 if trigger == "interrupt" else None)]
        assert race.primary.cancelled_jobs == 1
        assert race.primary.depth == 0 and race.primary.served == 0
        assert race.disarmed == (0 if trigger == "timer" else 1)

    @every_trigger
    def test_losing_second_leg_is_cancelled_and_capacity_released(
        self, trigger
    ):
        """The primary (30 ms) finishes first after a 50 ms second leg
        launched at t=20: the loser is cancelled 10 ms into its service
        and its queue drains immediately."""
        race = self._race(trigger, 30.0, 50.0, at_ms=20.0)
        outcome = race.run()
        assert outcome.winner == "primary"
        assert outcome.fired_ms == 20.0
        assert outcome.consumed_ms == pytest.approx(10.0)
        assert race.second.cancelled_jobs == 1
        assert race.second.depth == 0
        assert race.second.backlog_ms(race.sched.now) == 0.0

    @every_trigger
    def test_declined_leg_leaves_primary_untouched(self, trigger):
        race = self._race(trigger, 30.0, 10.0, at_ms=5.0, decline=True)
        if trigger != "timer":
            race.interrupt_at(8.0)  # a declined interrupt may re-fire
        outcome = race.run()
        assert outcome.winner == "primary"
        assert outcome.fired_ms is None
        assert outcome.completion.sojourn_ms == 30.0
        assert race.second.served == 0
        assert race.calls == {
            "timer": [(5.0, None)],
            "interrupt": [(5.0, 5.0), (8.0, 8.0)],
            "both": [(5.0, None), (6.0, 6.0), (8.0, 8.0)],
        }[trigger]

    def test_interrupt_launch_makes_the_timer_a_noop(self):
        race = _Race("both", 100.0, 10.0, at_ms=20.0, replaces=True)
        race.interrupt_at(4.0)
        outcome = race.run()
        assert outcome.winner == "second"
        assert outcome.fired_ms == 4.0
        assert outcome.consumed_ms == 4.0
        assert outcome.completion.finished_ms == 14.0
        assert race.calls == [(4.0, 4.0)]  # the t=20 timer asked nothing
        assert race.second.served == 1

    def test_declined_interrupt_leaves_the_timer_live(self):
        race = _Race("both", 100.0, 10.0, at_ms=20.0)
        race.decline = True
        race.interrupt_at(4.0)
        race.interrupt_at(9.0)
        race.sched.call_at(15.0, setattr, race, "decline", False)
        outcome = race.run()
        assert race.calls == [(4.0, 4.0), (9.0, 9.0), (20.0, None)]
        assert outcome.winner == "second"
        assert outcome.fired_ms == 20.0
        assert race.disarmed == 1

    @pytest.mark.parametrize("decline", [False, True])
    def test_trigger_firing_synchronously_inside_arm(self, decline):
        """An interrupt that fires while ``arm`` is still installing it
        either launches (and is disarmed at once) or, declined, stays
        live for a later firing."""
        race = _Race(
            "interrupt", 100.0, 10.0, at_ms=None,
            replaces=True, decline=decline, sync=True,
        )
        if decline:
            race.sched.call_at(5.0, setattr, race, "decline", False)
            race.interrupt_at(6.0)
        outcome = race.run()
        fired = 6.0 if decline else 0.0
        assert race.calls == [(0.0, 0.0)] + ([(6.0, 6.0)] if decline else [])
        assert outcome.winner == "second"
        assert outcome.fired_ms == fired
        assert outcome.consumed_ms == fired
        assert outcome.completion.finished_ms == fired + 10.0
        assert race.disarmed == 1

    def test_rejects_negative_timer(self):
        queue = ServerQueue("S", EventScheduler())
        with pytest.raises(ValueError):
            RacedWork(Work(queue, 1.0), lambda t, c: None, after_ms=-1.0)
