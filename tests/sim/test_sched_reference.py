"""``ServerQueue`` against the per-job-loop queue it replaced, bit for bit.

:class:`ReferenceQueue` is processor sharing as the queue did it before
its residents became two parallel lists: one ``remaining_ms`` attribute
per job, a Python loop to progress them, ``min`` over ``(remaining_ms,
seq)`` for the next departure, ``contended`` written into every resident
on every arrival.  A generated schedule of ``submit`` / ``cancel`` /
``backlog_ms`` / ``consumed_ms`` calls is driven through both and every
observable — each float, each :class:`Completion` field, the order of
completions, every instant handed to the scheduler — is compared with
``==``.  The arithmetic is meant to be the same operations in the same
order, so no tolerance is correct here.
"""

from dataclasses import dataclass
from typing import Callable

from hypothesis import event, example, given, settings, strategies as st

from repro.numeric import left_sum
from repro.sim.sched import Completion, EventScheduler, ServerQueue


@dataclass(eq=False)
class _RefJob:
    seq: int
    queued_ms: float
    demand_ms: float
    remaining_ms: float
    callback: Callable[[Completion], None]
    depth_at_arrival: int
    contended: bool = False
    cancelled: bool = False


class ReferenceQueue:
    """The queue of the parent commit, observer hooks left out (its
    backlog is the same left-to-right sum on every interpreter)."""

    def __init__(self, name, scheduler, capacity=1.0):
        self.name, self.scheduler, self.capacity = name, scheduler, float(capacity)
        self._jobs, self._seq, self._last_update, self._epoch = [], 0, 0.0, 0
        self.served, self.busy_ms, self.max_depth, self.cancelled_jobs = 0, 0.0, 0, 0

    @property
    def depth(self):
        return len(self._jobs)

    def backlog_ms(self, t_ms):
        self._advance_ps(t_ms)
        return left_sum(j.remaining_ms for j in self._jobs)

    def consumed_ms(self, job):
        if job.cancelled or job not in self._jobs:
            return 0.0
        self._advance_ps(self.scheduler.now)
        return max(0.0, job.demand_ms / self.capacity - job.remaining_ms)

    def submit(self, demand_ms, callback):
        now = self.scheduler.now
        self._advance_ps(now)
        job = _RefJob(
            self._seq, now, demand_ms, demand_ms / self.capacity, callback,
            depth_at_arrival=len(self._jobs) + 1,
        )
        self._seq += 1
        self._jobs.append(job)
        self.max_depth = max(self.max_depth, len(self._jobs))
        if len(self._jobs) > 1:
            for resident in self._jobs:
                resident.contended = True
        self._reschedule_ps()
        return job

    def cancel(self, job):
        if job.cancelled or job not in self._jobs:
            return 0.0
        job.cancelled = True
        self._advance_ps(self.scheduler.now)
        consumed = max(0.0, job.demand_ms / self.capacity - job.remaining_ms)
        self._jobs.remove(job)
        self.busy_ms += consumed
        self.cancelled_jobs += 1
        self._reschedule_ps()
        return consumed

    def _advance_ps(self, t_ms):
        if t_ms <= self._last_update:
            return
        if self._jobs:
            burned = (t_ms - self._last_update) / len(self._jobs)
            for job in self._jobs:
                job.remaining_ms = max(0.0, job.remaining_ms - burned)
        self._last_update = t_ms

    def _reschedule_ps(self):
        self._epoch += 1
        if not self._jobs:
            return
        head = min(self._jobs, key=lambda j: (j.remaining_ms, j.seq))
        eta = head.remaining_ms * len(self._jobs)
        self.scheduler.call_at(self._last_update + eta, self._depart_ps, self._epoch)

    def _depart_ps(self, epoch):
        if epoch != self._epoch:
            return
        now = self.scheduler.now
        self._advance_ps(now)
        head = min(self._jobs, key=lambda j: (j.remaining_ms, j.seq))
        self._jobs.remove(head)
        self.served += 1
        self.busy_ms += head.demand_ms / self.capacity
        self._reschedule_ps()
        head.callback(
            Completion(
                queue=self.name, queued_ms=head.queued_ms,
                finished_ms=now, demand_ms=head.demand_ms,
                service_ms=head.demand_ms / self.capacity,
                depth_at_arrival=head.depth_at_arrival, contended=head.contended,
            )
        )


class _RecordingScheduler(EventScheduler):
    """Keeps every instant anything asked to be woken at."""

    def __init__(self):
        super().__init__()
        self.armed = []

    def call_at(self, t_ms, fn, *args):
        self.armed.append(t_ms)
        super().call_at(t_ms, fn, *args)


def _drive(queue_class, capacity, prefill, ops):
    """Run one schedule to the end; returns everything observable."""
    sched = _RecordingScheduler()
    queue = queue_class("S", sched, capacity)
    trace, handles, gone = [], [], set()

    def submit(demand_ms):
        number = len(handles)

        def done(completion):
            gone.add(number)
            trace.append(("done", number, completion, completion.wait_ms))

        handles.append(queue.submit(demand_ms, done))

    def pick(which, k):
        """A job number: the oldest or the median resident, or any job
        ever submitted — departed and cancelled ones included."""
        live = [n for n in range(len(handles)) if n not in gone]
        if which == "any" or not live:
            return k % len(handles)
        return live[0] if which == "oldest" else live[len(live) // 2]

    def step(op):
        kind = op[0]
        if kind == "submit":
            submit(op[2])
        elif kind == "backlog":
            trace.append(("backlog", sched.now, queue.backlog_ms(sched.now)))
        elif handles:
            number = pick(op[2], op[3])
            if kind == "consumed":
                value = queue.consumed_ms(handles[number])
            else:
                value = queue.cancel(handles[number])
                gone.add(number)
            trace.append((kind, sched.now, number, value, queue.depth))

    for index in range(prefill):
        submit(_DEMANDS[index % len(_DEMANDS)])
    t_ms = 0.0
    for op in ops:
        t_ms += op[1]
        sched.call_at(t_ms, step, op)
    end = sched.run()
    assert queue.served + queue.cancelled_jobs == len(handles)  # all left
    totals = (
        end, queue.depth, queue.served, queue.busy_ms, queue.max_depth,
        queue.cancelled_jobs, queue.backlog_ms(end),
    )
    return trace, sched.armed, totals


#: Repeated values make departure ties; 10/3 and 0.1 do not round-trip
#: through a subtraction; 0.0 departs at its own arrival instant.
_DEMANDS = (3.0, 3.0, 10.0 / 3.0, 0.1, 0.0, 50.0, 400.0, 7.25, 3.0)
_demand = st.sampled_from(_DEMANDS) | st.floats(0.0, 500.0)
#: Mostly short gaps, so arrivals outpace service and the queue deepens.
_gap = st.sampled_from((0.0, 0.0, 0.01, 0.1 + 0.2, 1.0, 25.0)) | st.floats(0.0, 5.0)
_target = st.sampled_from(("oldest", "middle", "any", "any"))
_op = st.one_of(
    st.tuples(st.just("submit"), _gap, _demand),
    st.tuples(st.just("submit"), _gap, _demand),
    st.tuples(st.just("backlog"), _gap),
    st.tuples(st.just("consumed"), _gap, _target, st.integers(0, 10_000)),
    st.tuples(st.just("cancel"), _gap, _target, st.integers(0, 10_000)),
)


@given(
    capacity=st.sampled_from((1.0, 0.5, 2.0, 3.0, 0.7)),
    prefill=st.sampled_from((0, 0, 1, 3, 40, 300)),
    ops=st.lists(_op, max_size=80),
)
@example(
    # Three hundred deep, capacity != 1: peek, then cancel the oldest, a
    # middle and a long-departed job (number 4 demanded nothing), twice.
    capacity=0.7,
    prefill=300,
    ops=[
        ("backlog", 0.1 + 0.2),
        ("consumed", 0.0, "middle", 0),
        ("cancel", 1.0, "oldest", 0),
        ("cancel", 0.0, "middle", 0),
        ("cancel", 0.0, "any", 4),
        ("cancel", 0.0, "any", 4),
        ("submit", 25.0, 3.0),
        ("backlog", 0.0),
        ("consumed", 400.0, "oldest", 0),
    ],
)
@settings(deadline=None)
def test_parallel_lists_match_the_per_job_loop(capacity, prefill, ops):
    trace, armed, totals = _drive(ServerQueue, capacity, prefill, ops)
    ref_trace, ref_armed, ref_totals = _drive(ReferenceQueue, capacity, prefill, ops)
    assert trace == ref_trace
    assert armed == ref_armed
    assert totals == ref_totals
    # Shown by --hypothesis-show-statistics: how deep the schedules got.
    max_depth = totals[4]
    event("max depth " + ("< 10" if max_depth < 10 else "< 100" if max_depth < 100 else ">= 100"))
