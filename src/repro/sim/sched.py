"""Discrete-event scheduler: many in-flight queries on one virtual clock.

Until this module existed every federated query ran to completion before
the next one started, so the "load" the calibrator observed was entirely
scripted.  :class:`EventScheduler` lets arbitrarily many simulated
activities overlap in virtual time: each activity is a plain Python
generator (a coroutine) that *yields* requests — a :class:`Work` item
bound for a server's capacity queue, a :class:`Delay`, or an
:class:`AllOf` join over several requests — and is resumed when the
request completes, receiving a :class:`Completion` describing when the
work actually finished.

Per-server capacity is modelled by :class:`ServerQueue` as egalitarian
processor sharing: all resident fragments progress simultaneously at
``capacity / n`` each, the classic model of a multiprogrammed database
server.  Sojourn inflates smoothly with the number of concurrent
residents — which is exactly the signal the paper's QCC calibrates
against, so contention produced by *overlapping queries* feeds the
calibrator the same way the testbed's real update storms did.

A second leg (tail-latency insurance, mid-query re-routing) is a
first-class request: :class:`RacedWork` submits a primary :class:`Work`
item and arms its triggers — a timer, an external interrupt, or both.
The first trigger whose ``second_leg`` callback produces work launches
the request's one second leg at another queue, either racing the primary
(first completion wins) or replacing it; the loser is *cancelled* — its
remaining service is released back to its :class:`ServerQueue`, so a
second leg never doubles the steady-state load.

Determinism: events at equal virtual times fire in scheduling order (a
monotonic sequence number breaks ties), processor-sharing departures
break remaining-work ties by arrival order, and nothing here consumes
randomness — byte-identical replays come for free.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Generator, List, Optional, Sequence, Tuple

from ..numeric import left_sum
from .clock import VirtualClock

#: Relative slack when comparing virtual times (float accumulation).
_EPS = 1e-9


@dataclass(frozen=True)
class Work:
    """A request for ``demand_ms`` of service at one capacity queue."""

    queue: "ServerQueue"
    demand_ms: float

    def __post_init__(self) -> None:
        if self.demand_ms < 0:
            raise ValueError(f"negative work demand {self.demand_ms}")


@dataclass(frozen=True)
class Delay:
    """A request to sleep ``delay_ms`` of virtual time."""

    delay_ms: float

    def __post_init__(self) -> None:
        if self.delay_ms < 0:
            raise ValueError(f"negative delay {self.delay_ms}")


@dataclass(frozen=True)
class AllOf:
    """Join: resume once every sub-request has completed.

    The resume value is a list of per-request results in the order the
    requests were given (``None`` for plain delays).
    """

    requests: Tuple[object, ...]

    def __init__(self, requests: Sequence[object]):
        object.__setattr__(self, "requests", tuple(requests))


@dataclass(frozen=True)
class RacedWork:
    """Primary work that may gain one second leg at another queue.

    The primary :class:`Work` is submitted exactly as a plain yield — a
    request whose triggers never launch anything is byte-identical to
    it — and then the triggers are armed, timer before interrupt:

    * ``after_ms``: a timer; it fires once, if the primary is still
      pending after that delay.
    * ``arm(interrupt)``: installs an external trigger (the re-routing
      layer subscribes it to the calibration epoch) and returns a disarm
      callable, which the scheduler calls once the request settles or a
      leg has launched.  ``interrupt()`` may fire any number of times,
      even synchronously inside ``arm``.

    A firing trigger calls ``second_leg(t_ms, consumed_ms)``.
    ``consumed_ms`` is the dedicated service the primary has consumed so
    far when an interrupt fired and ``None`` when the timer did: peeking
    settles the queue's processor-sharing accounts at that instant, and
    a timer that then declines must leave them exactly as an unhedged
    run would.  Built lazily, the leg's demand and target are chosen
    under the conditions that exist *when the trigger fires*.  It
    returns ``None`` to decline (the interrupt stays live and may
    re-fire) or the second :class:`Work` plus ``replaces``: True cancels
    the primary now and the second leg alone settles the request; False
    races the two, first completion wins and the loser is cancelled.
    Whichever trigger first launches a leg owns the request's single
    second-leg slot; every later firing is ignored.
    """

    primary: "Work"
    second_leg: Callable[
        [float, Optional[float]], Optional[Tuple["Work", bool]]
    ]
    after_ms: Optional[float] = None
    arm: Optional[Callable[[Callable[[], None]], Callable[[], None]]] = None

    def __post_init__(self) -> None:
        if self.after_ms is not None and self.after_ms < 0:
            raise ValueError(f"negative trigger delay {self.after_ms}")


@dataclass(frozen=True)
class RaceOutcome:
    """Resume value of a :class:`RacedWork` request."""

    #: The completion that settled the request.
    completion: "Completion"
    #: ``"primary"`` or ``"second"``: the leg that completion belongs to.
    winner: str
    #: Virtual instant the second leg launched (None when none did).
    fired_ms: Optional[float]
    #: Dedicated service the cancelled leg had consumed — the replaced
    #: primary, or the race's loser; 0.0 when nothing was cancelled.
    consumed_ms: float


@dataclass(frozen=True)
class Completion:
    """What happened to one :class:`Work` request."""

    queue: str
    queued_ms: float
    finished_ms: float
    demand_ms: float
    #: Dedicated service time (``demand_ms / capacity``).
    service_ms: float
    #: Residents in the queue at the instant this work arrived (this
    #: request included) — the congestion it walked into.
    depth_at_arrival: int
    #: Whether this work ever shared the server with other residents.
    contended: bool

    @property
    def wait_ms(self) -> float:
        """Queueing/slowdown delay in excess of the dedicated service.

        This is the *primitive* of the latency decomposition:
        ``sojourn_ms`` is defined as ``wait_ms + service_ms``, never the
        other way around, so queue_wait + service == sojourn holds
        bit-for-bit in the span layer (recovering the wait from a float
        sojourn loses an ulp whenever ``fl(fl(a-b)+b) != a``).
        """
        if not self.contended:
            return 0.0
        return max(
            0.0, (self.finished_ms - self.queued_ms) - self.service_ms
        )

    @property
    def sojourn_ms(self) -> float:
        """Total time in system: queueing/slowdown + service.

        An uncontended job's sojourn is *exactly* its service time — the
        identity is asserted here rather than recovered from
        ``finished - queued`` so a query that met no congestion observes
        bit-identical timings to a sequential run (no ``(a+b)-a``
        floating-point residue).  A contended job's sojourn is the exact
        sum of its two exported components (see :attr:`wait_ms`).
        """
        if not self.contended:
            return self.service_ms
        return self.wait_ms + self.service_ms


Process = Generator[object, object, None]


class EventScheduler:
    """A deterministic event loop over a :class:`VirtualClock`."""

    def __init__(self, clock: Optional[VirtualClock] = None):
        self.clock = clock if clock is not None else VirtualClock()
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self._live_processes = 0

    @property
    def now(self) -> float:
        return self.clock.now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    @property
    def live_processes(self) -> int:
        return self._live_processes

    # -- primitives ------------------------------------------------------

    def call_at(self, t_ms: float, fn: Callable, *args: object) -> None:
        """Run ``fn(*args)`` at virtual time *t_ms* (clamped to now)."""
        if t_ms < self.clock.now - _EPS:
            raise ValueError(
                f"cannot schedule at {t_ms} before now={self.clock.now}"
            )
        heapq.heappush(
            self._heap, (max(t_ms, self.clock.now), self._seq, fn, args)
        )
        self._seq += 1

    def call_later(self, delay_ms: float, fn: Callable, *args: object) -> None:
        if delay_ms < 0:
            raise ValueError(f"negative delay {delay_ms}")
        self.call_at(self.clock.now + delay_ms, fn, *args)

    # -- processes -------------------------------------------------------

    def spawn(self, process: Process, at_ms: Optional[float] = None) -> None:
        """Start *process* (a generator yielding Work/Delay/AllOf).

        The first ``next()`` happens at ``at_ms`` (default: now), so a
        process observes the scheduler clock already advanced to its
        start time.
        """
        self._live_processes += 1
        self.call_at(
            self.clock.now if at_ms is None else at_ms,
            self._step,
            process,
            None,
        )

    def _step(self, process: Process, value: object) -> None:
        try:
            request = process.send(value)
        except StopIteration:
            self._live_processes -= 1
            return
        self._dispatch(request, lambda result: self._step(process, result))

    def _dispatch(
        self, request: object, resume: Callable[[object], None]
    ) -> None:
        if isinstance(request, Work):
            request.queue.submit(request.demand_ms, resume)
        elif isinstance(request, Delay):
            self.call_later(request.delay_ms, resume, None)
        elif isinstance(request, AllOf):
            self._join(request.requests, resume)
        elif isinstance(request, RacedWork):
            _Race(self, request, resume).start()
        else:
            raise TypeError(
                f"process yielded {request!r}; "
                "expected Work, Delay, AllOf or RacedWork"
            )

    def _join(
        self, requests: Tuple[object, ...], resume: Callable[[object], None]
    ) -> None:
        if not requests:
            self.call_later(0.0, resume, [])
            return
        results: List[object] = [None] * len(requests)
        remaining = [len(requests)]

        def collect(index: int, result: object) -> None:
            results[index] = result
            remaining[0] -= 1
            if remaining[0] == 0:
                resume(results)

        for index, request in enumerate(requests):
            self._dispatch(request, lambda r, i=index: collect(i, r))

    # -- the loop --------------------------------------------------------

    def run(self, until_ms: Optional[float] = None) -> float:
        """Fire events in (time, schedule-order) until the heap drains
        (or ``until_ms``); returns the final virtual time."""
        while self._heap:
            t, _, fn, args = self._heap[0]
            if until_ms is not None and t > until_ms + _EPS:
                break
            heapq.heappop(self._heap)
            self.clock.advance_to(t)
            fn(*args)
        if until_ms is not None:
            self.clock.advance_to(until_ms)
        return self.clock.now


class _Race:
    """Scheduler-side state of one :class:`RacedWork`: the resident
    legs as ``(queue, job)`` pairs and the triggers that may still add
    the second one."""

    __slots__ = (
        "scheduler", "request", "resume", "primary", "second",
        "fired_ms", "consumed_ms", "done", "disarm",
    )

    def __init__(
        self,
        scheduler: EventScheduler,
        request: RacedWork,
        resume: Callable[[object], None],
    ):
        self.scheduler = scheduler
        self.request = request
        self.resume = resume
        self.primary: Optional[tuple] = None
        self.second: Optional[tuple] = None
        self.fired_ms: Optional[float] = None
        self.consumed_ms = 0.0
        self.done = False
        self.disarm: Optional[Callable[[], None]] = None

    def start(self) -> None:
        request = self.request
        self.primary = self._submit(request.primary, self._primary_done)
        if request.after_ms is not None:
            self.scheduler.call_later(request.after_ms, self._timer)
        if request.arm is not None:
            installed = request.arm(self._interrupt)
            if self.done or self.fired_ms is not None:
                # The trigger fired synchronously while arming; nothing
                # left to watch.
                installed()
            else:
                self.disarm = installed

    def _submit(self, work: Work, callback: Callable) -> tuple:
        return work.queue, work.queue.submit(work.demand_ms, callback)

    # -- triggers --------------------------------------------------------

    def _timer(self) -> None:
        if not self.done and self.fired_ms is None:
            self._launch(None)

    def _interrupt(self) -> None:
        if not self.done and self.fired_ms is None:
            # Peek at consumed service *before* deciding: the leg
            # quantises the checkpoint to batch boundaries and may
            # decline (fully drained, no viable replica).
            queue, job = self.primary
            self._launch(queue.consumed_ms(job))

    def _launch(self, consumed_ms: Optional[float]) -> None:
        now = self.scheduler.now
        leg = self.request.second_leg(now, consumed_ms)
        if leg is None:
            return  # declined (fanout cap, drained, no replica, down)
        work, replaces = leg
        self.fired_ms = now
        if replaces:
            self._cancel(self.primary)
            self.primary = None
        self._disarm()
        self.second = self._submit(work, self._second_done)

    # -- settlement ------------------------------------------------------

    def _primary_done(self, completion: "Completion") -> None:
        self._settle("primary", completion, self.second)

    def _second_done(self, completion: "Completion") -> None:
        self._settle("second", completion, self.primary)

    def _settle(
        self, winner: str, completion: "Completion", loser: Optional[tuple]
    ) -> None:
        self.done = True
        self._disarm()
        if loser is not None:
            self._cancel(loser)
        # Each leg's job calls back into this race: dropping the legs
        # breaks the cycle, so the race and everything it reaches (the
        # fragment's rows, the query's generator) is freed by reference
        # counting when the query finishes.  The triggers check ``done``
        # first and never read the legs again.
        self.primary = self.second = None
        self.resume(
            RaceOutcome(completion, winner, self.fired_ms, self.consumed_ms)
        )

    def _cancel(self, leg: tuple) -> None:
        """The one loser-cancellation path: release *leg*'s unserved
        demand back to its queue, keeping what it had consumed."""
        queue, job = leg
        self.consumed_ms = queue.cancel(job)

    def _disarm(self) -> None:
        disarm, self.disarm = self.disarm, None
        if disarm is not None:
            disarm()


@dataclass(eq=False, slots=True)
class _Job:
    """One resident work item; a handle, compared by identity."""

    seq: int
    queued_ms: float
    demand_ms: float
    callback: Callable[[Completion], None]
    depth_at_arrival: int = 1


class ServerQueue:
    """A capacity-limited service station on the scheduler's clock.

    ``capacity`` is a service rate: a demand of ``d`` ms takes ``d /
    capacity`` ms of dedicated service.  All resident jobs share the
    capacity equally (egalitarian processor sharing).

    Residents are two aligned lists in arrival (= ``seq``) order: the
    handles, and their remaining service as bare floats (``demand /
    capacity`` units, one retired per unit of virtual time however it
    is shared) whose *first* minimum is the next departure.
    """

    def __init__(
        self, name: str, scheduler: EventScheduler, capacity: float = 1.0
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.scheduler = scheduler
        self.capacity = float(capacity)
        self._jobs: List[_Job] = []
        self._remaining: List[float] = []
        self._seq = 0
        #: Last instant the residents' remaining work was updated.
        self._last_update = 0.0
        #: Guards against stale departure events after state changes.
        self._epoch = 0
        # -- lifetime statistics ----------------------------------------
        self.served = 0
        self.busy_ms = 0.0
        self.max_depth = 0
        self.cancelled_jobs = 0

    # -- introspection ---------------------------------------------------

    @property
    def depth(self) -> int:
        """Jobs currently in the system."""
        return len(self._jobs)

    def backlog_ms(self, t_ms: float) -> float:
        """Virtual time needed to drain the current residents (no new
        arrivals) — the admission controller's wait predictor."""
        self._advance_ps(t_ms)
        return left_sum(self._remaining)

    def consumed_ms(self, job: _Job) -> float:
        """Dedicated service *job* has consumed so far, without touching
        it (0.0 when it has already left the system).

        This is exactly what :meth:`cancel` would report if called at
        the same instant — re-routing peeks here to quantise a
        checkpoint before committing to the cancellation.
        """
        try:
            index = self._jobs.index(job)
        except ValueError:
            return 0.0
        self._advance_ps(self.scheduler.now)
        return max(0.0, job.demand_ms / self.capacity - self._remaining[index])

    # -- submission ------------------------------------------------------

    def submit(
        self, demand_ms: float, callback: Callable[[Completion], None]
    ) -> _Job:
        """Enqueue ``demand_ms`` of service now; ``callback(completion)``
        fires at the (virtual) instant the work finishes.  Returns an
        opaque job handle accepted by :meth:`cancel`."""
        if demand_ms < 0:
            raise ValueError(f"negative work demand {demand_ms}")
        now = self.scheduler.now
        self._advance_ps(now)
        job = _Job(
            seq=self._seq,
            queued_ms=now,
            demand_ms=demand_ms,
            callback=callback,
            depth_at_arrival=len(self._jobs) + 1,
        )
        self._seq += 1
        self._jobs.append(job)
        self._remaining.append(demand_ms / self.capacity)
        self.max_depth = max(self.max_depth, len(self._jobs))
        self._reschedule_ps()
        return job

    # -- cancellation ----------------------------------------------------

    def cancel(self, job: _Job) -> float:
        """Abandon *job*, releasing its unserved demand back to the queue.

        Returns the dedicated-service milliseconds the job had already
        consumed (0.0 when it had already completed/been cancelled) —
        the hedging layer reports this as ``hedge_wasted_ms``.
        """
        try:
            index = self._jobs.index(job)
        except ValueError:
            return 0.0
        self._advance_ps(self.scheduler.now)
        del self._jobs[index]
        left = self._remaining.pop(index)
        consumed = max(0.0, job.demand_ms / self.capacity - left)
        self.busy_ms += consumed
        self.cancelled_jobs += 1
        self._reschedule_ps()
        return consumed

    # -- processor sharing ----------------------------------------------

    def _advance_ps(self, t_ms: float) -> None:
        """Progress every resident's remaining work up to *t_ms*."""
        if t_ms <= self._last_update:
            return
        if self._remaining:
            # Each of n residents progresses at 1/n; the conditional is
            # ``max(0.0, r - burned)`` without a call per resident.
            burned = (t_ms - self._last_update) / len(self._remaining)
            self._remaining = [
                r - burned if r > burned else 0.0 for r in self._remaining
            ]
        self._last_update = t_ms

    def _reschedule_ps(self) -> None:
        """(Re)arm the next-departure event; stale events are fenced by
        the epoch counter."""
        self._epoch += 1
        if self._remaining:
            eta = min(self._remaining) * len(self._remaining)
            self.scheduler.call_at(
                self._last_update + eta, self._depart_ps, self._epoch
            )

    def _depart_ps(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # superseded by a later arrival/departure
        now = self.scheduler.now
        self._advance_ps(now)
        index = self._remaining.index(min(self._remaining))
        head = self._jobs.pop(index)
        del self._remaining[index]
        self.served += 1
        self.busy_ms += head.demand_ms / self.capacity
        # Re-arm before the callback: the callback may resume a process
        # that immediately submits more work to this very queue.
        self._reschedule_ps()
        completion = Completion(
            queue=self.name,
            queued_ms=head.queued_ms,
            finished_ms=now,
            demand_ms=head.demand_ms,
            service_ms=head.demand_ms / self.capacity,
            depth_at_arrival=head.depth_at_arrival,
            # Arrived into company, or something arrived while resident.
            contended=head.depth_at_arrival > 1 or self._seq > head.seq + 1,
        )
        head.callback(completion)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServerQueue {self.name} depth={self.depth}>"
