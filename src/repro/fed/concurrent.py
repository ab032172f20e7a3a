"""Concurrent federation runtime: overlapping queries on shared servers.

:class:`ConcurrentRuntime` drives an unmodified
:class:`~repro.fed.integrator.InformationIntegrator` from a
discrete-event scheduler (:mod:`repro.sim.sched`).  Each submitted query
is one run of the integrator's own ``lifecycle`` generator, spawned as
a scheduler process behind the admission front door; instead of
settling fragment demands at their raw value, a :class:`QueuedDispatch`
strategy *yields* them into per-server capacity queues.  When many
queries are in flight their fragments contend, sojourn times inflate,
and the inflated sojourns (not the raw demands) are what the
meta-wrapper reports to QCC: the calibrator observes load exactly the
way the paper's testbed observed update storms, except the load now
emerges from query concurrency itself.  :class:`RacedDispatch` adds a
second leg — a hedge backup or a mid-query migration — at the next
replica of the fragment's Section 4.1 cluster.

Equivalence guarantee: a query that meets no contention (every queue
empty for its whole lifetime) observes sojourn == raw demand *exactly*
(see :class:`~repro.sim.sched.Completion`), so a single query run
through this runtime produces a bit-identical
:class:`~repro.fed.integrator.FederatedResult` to ``integrator.submit``.
``tests/integration/test_concurrent_equivalence.py`` enforces this.

Admission happens at the patroller's front door: each query carries a
priority class; the :class:`~repro.fed.admission.AdmissionController`
sheds it (recorded, budgeted, token-audited) before any work is done
when the class is out of tokens or the backlog already exceeds its
latency budget.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Optional, Sequence

from ..core.routing import generalize_signature
from ..obs import NULL_TRACE, QueryTrace, Span, get_obs
from ..obs.flight import (
    cancel_queue_spans,
    open_queue_spans,
    settle_queue_spans,
)
from ..sim import (
    AllOf,
    EventScheduler,
    RacedWork,
    ServerQueue,
    ServerUnavailable,
    Work,
)
from ..sqlengine import SqlError

# Re-exported, not called: the repo benchmark's layer timer patches
# both names in this module's namespace.
from ..sqlengine import execute_plan as execute_plan
from .admission import (
    AdmissionController,
    DEFAULT_CLASSES,
    PriorityClass,
    ShedVerdict,
)
from .global_optimizer import FragmentOption
from .hedging import HedgePolicy
from .integrator import (
    II_QUEUE,
    DispatchStrategy,
    FederatedResult,
    FragmentSlot,
    InformationIntegrator,
    Settled,
)
from .merge import build_merge_plan as build_merge_plan
from .rerouting import (
    ReroutePolicy,
    merge_partial_rows,
    tail_demand_ms,
)


@dataclass
class QueryHandle:
    """The caller's view of one in-flight (or finished) query."""

    index: int
    sql: str
    klass: str
    label: Optional[str]
    submitted_ms: float
    result: Optional[FederatedResult] = None
    shed: Optional[ShedVerdict] = None
    error: Optional[Exception] = None
    #: The query's span tree when tracing is enabled (every outcome —
    #: completed, shed, failed — gets one); None with the null tracer.
    trace: Optional[QueryTrace] = None

    @property
    def status(self) -> str:
        if self.result is not None:
            return "completed"
        if self.shed is not None:
            return "shed"
        if self.error is not None:
            return "failed"
        return "pending"

    @property
    def done(self) -> bool:
        return self.status != "pending"

    @property
    def response_ms(self) -> Optional[float]:
        if self.result is not None:
            return self.result.response_ms
        return None


class ConcurrentRuntime:
    """Event-driven multi-query front end over one integrator.

    Every server is an egalitarian processor-sharing queue serving at
    the sequential runtime's speed.  The runtime owns the integrator's
    clock via its scheduler and disables the integrator's own clock
    advancement.

    ``hedge_after_ms`` (the static hedge delay; per-signature p95
    derivation takes over once latency history accumulates, see
    :mod:`repro.fed.hedging`) and ``reroute_batch_rows`` (bounded
    mid-query batch re-routing, see :mod:`repro.fed.rerouting`) each
    arm one trigger of :class:`RacedDispatch`; with both ``None`` (the
    default) dispatch is plain :class:`QueuedDispatch`.  With both set,
    whichever trigger first launches a leg owns the fragment's single
    second-leg slot.
    """

    def __init__(
        self,
        integrator: InformationIntegrator,
        classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
        discipline: str = "ps",
        hedge_after_ms: Optional[float] = None,
        reroute_batch_rows: Optional[int] = None,
    ):
        # Processor sharing is the only discipline; the parameter is
        # kept solely because benchmarks/e2e/workloads.py (frozen by
        # BENCHMARK.json) passes ``discipline="ps"``.
        if discipline != "ps":
            raise ValueError(
                f"unknown discipline {discipline!r}; only 'ps' exists"
            )
        self.integrator = integrator
        self.hedging: Optional[HedgePolicy] = (
            None
            if hedge_after_ms is None
            else HedgePolicy(hedge_after_ms)
        )
        self.rerouting: Optional[ReroutePolicy] = (
            None
            if reroute_batch_rows is None
            else ReroutePolicy(reroute_batch_rows)
        )
        raced = self.hedging is not None or self.rerouting is not None
        self.strategy = RacedDispatch(self) if raced else QueuedDispatch(self)
        integrator.advance_clock = False
        self.scheduler = EventScheduler(integrator.clock)
        self.queues: Dict[str, ServerQueue] = {}
        self.ii_queue = ServerQueue(II_QUEUE, self.scheduler)
        self.admission = AdmissionController(
            classes, {II_QUEUE: self.ii_queue}, t0_ms=self.scheduler.now
        )
        for name in integrator.meta_wrapper.server_names():
            self.queue_for(name)
        self.handles: List[QueryHandle] = []
        #: Highest-priority class: the default for unclassified queries.
        self._default_class = min(classes, key=lambda c: c.rank).name

    # -- queue plumbing --------------------------------------------------

    def queue_for(self, server: str) -> ServerQueue:
        """Capacity queue for *server*, created on first use so servers
        that appear after construction (replica promotion, chaos
        topology changes) still contend."""
        queue = self.queues.get(server)
        if queue is None:
            queue = ServerQueue(server, self.scheduler)
            self.queues[server] = queue
            self.admission.backlog_sources[server] = queue
        return queue

    # -- submission ------------------------------------------------------

    def submit_at(
        self,
        t_ms: float,
        sql: str,
        klass: Optional[str] = None,
        label: Optional[str] = None,
    ) -> QueryHandle:
        """Schedule one federated query to arrive at virtual *t_ms*."""
        handle = QueryHandle(
            index=len(self.handles),
            sql=sql,
            klass=klass if klass is not None else self._default_class,
            label=label,
            submitted_ms=t_ms,
        )
        self.handles.append(handle)
        self.scheduler.spawn(self._query_process(handle), at_ms=t_ms)
        return handle

    def run(self, until_ms: Optional[float] = None) -> float:
        """Run the event loop until quiescence (or *until_ms*)."""
        return self.scheduler.run(until_ms)

    # -- results ---------------------------------------------------------

    def completed(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.result is not None]

    def sheds(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.shed is not None]

    def failures(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.error is not None]

    # -- the per-query coroutine ----------------------------------------

    def _query_process(self, handle: QueryHandle):
        """Admit *handle*'s query, then drive the integrator's
        lifecycle over this runtime's queues."""
        ii = self.integrator
        obs = get_obs()
        t0 = handle.submitted_ms
        in_flight = obs.metrics.gauge("sched_in_flight")
        in_flight.set(self.scheduler.live_processes)
        try:
            record, trace, root = ii.open_query(
                handle.sql,
                t0,
                handle.label,
                klass=handle.klass,
                query_index=handle.index,
            )
            if trace is not NULL_TRACE:
                handle.trace = trace
            decision = self.admission.decide(handle.klass, t0)
            trace.event(
                "admission",
                t0,
                admitted=decision.admitted,
                tokens_before=decision.tokens_before,
                predicted_ms=decision.predicted_ms,
                budget_ms=(
                    None if math.isinf(decision.budget_ms)
                    else decision.budget_ms
                ),
                reason=decision.reason or "admitted",
            )
            if not decision.admitted:
                ii.patroller.shed(record, t0, decision.reason)
                obs.metrics.counter(
                    "admission_shed_total",
                    klass=handle.klass,
                    reason=decision.reason,
                ).inc()
                trace.end(root, t0, status="shed", reason=decision.reason)
                obs.tracer.finish(trace, t0, status="shed")
                handle.shed = ShedVerdict(record=record, decision=decision)
                return
            obs.metrics.counter(
                "admission_admitted_total", klass=handle.klass
            ).inc()
            handle.result = yield from ii.lifecycle(
                record, trace, root, self.strategy
            )
            obs.metrics.histogram(
                "query_sojourn_ms", klass=handle.klass
            ).observe(handle.result.response_ms)
        except SqlError as exc:
            handle.error = exc
        finally:
            # On every exit (shed, failed, completed) the scheduler
            # still counts this process as live.
            in_flight.set(self.scheduler.live_processes - 1)


class QueuedDispatch(DispatchStrategy):
    """Contend: push each fragment's raw demand through its server's
    capacity queue and resume when the slowest finishes; the merge goes
    through the integrator's own queue.  QCC learns the queue-inflated
    sojourns, at settle time, and a traced query's queue spans
    (:mod:`repro.obs.flight`) settle from the same completions."""

    def __init__(self, runtime: ConcurrentRuntime):
        self.runtime = runtime

    def dispatch(self, slots, t_dispatch, trace):
        outcomes = yield AllOf([self.request(slot, trace) for slot in slots])
        return [
            self.settle(slot, outcome, t_dispatch, trace)
            for slot, outcome in zip(slots, outcomes)
        ]

    def merge(self, demand_ms, t_ms, trace, span):
        # The join resumed at the slowest fragment's finish, so the
        # scheduler's clock already stands at *t_ms*.
        ii_queue = self.runtime.ii_queue
        work, spans = self.work(ii_queue, demand_ms, trace, span)
        completion = yield work
        settle_queue_spans(spans, completion)
        get_obs().metrics.gauge("sched_queue_depth", server=II_QUEUE).set(
            ii_queue.depth
        )
        return completion

    # -- per-slot hooks --------------------------------------------------

    def request(self, slot: FragmentSlot, trace: QueryTrace):
        """The scheduler request that runs *slot*'s fragment."""
        work, slot.queue_spans = self.work(
            self.runtime.queue_for(slot.option.server),
            slot.execution.observed_ms,
            trace,
            slot.span,
        )
        return work

    def settle(
        self, slot: FragmentSlot, outcome, t_dispatch: float, trace: QueryTrace
    ) -> Settled:
        """Resolve what :meth:`request` resumed with."""
        settle_queue_spans(slot.queue_spans, outcome)
        return self.settled(
            slot.option, slot.execution, outcome, outcome.sojourn_ms
        )

    # -- shared by every queued strategy --------------------------------

    def work(self, queue: ServerQueue, demand_ms: float, trace: QueryTrace, span: Span):
        """*demand_ms* at *queue*, and its queue spans under *span*
        opened now — the instant the scheduler enqueues it — when
        *trace* records (else None)."""
        spans = None
        if trace is not NULL_TRACE:
            now = self.runtime.scheduler.now
            spans = open_queue_spans(trace, span, queue.name, now)
        return Work(queue, demand_ms), spans

    def settled(
        self,
        option: FragmentOption,
        execution,
        completion,
        effective_ms: float,
        learned=None,
        **tags: object,
    ) -> Settled:
        """*option*'s *execution* at the fragment's effective latency,
        which QCC learns too unless *learned* overrides it."""
        metrics = get_obs().metrics
        metrics.histogram("sched_sojourn_ms", server=option.server).observe(
            completion.sojourn_ms
        )
        metrics.gauge("sched_queue_depth", server=option.server).set(
            self.runtime.queue_for(option.server).depth
        )
        inflated = dataclasses.replace(execution, observed_ms=effective_ms)
        return Settled(option, inflated, learned or inflated, completion, tags)


class RacedDispatch(QueuedDispatch):
    """Give each fragment one second leg at the next replica of its
    Section 4.1 cluster, launched by whichever trigger fires first:

    * the *hedge* timer races a backup against the primary; only the
      winner flows onward (runtime log, calibrator, merge) at the
      fragment's effective latency, the cancelled loser leaves a waste
      metric;
    * a calibration-epoch bump mid-flight *re-routes* the unshipped
      batches; the merged prefix + tail rows flow onward at the true
      end-to-end latency, while QCC still learns the primary's raw
      demand, never counterfactual per-server costs (see
      :mod:`repro.fed.rerouting`).

    Either of the runtime's two policies may be absent; the one that
    first launches a leg owns the fragment's single second-leg slot.
    """

    def __init__(self, runtime: ConcurrentRuntime):
        super().__init__(runtime)
        self.hedge = runtime.hedging
        self.reroute = runtime.rerouting

    def request(self, slot, trace):
        # The primary is submitted exactly as a plain request, so a race
        # that never launches is byte-identical to plain dispatch.
        primary = super().request(slot, trace)
        after_ms = arm = None
        if self.hedge is not None:
            after_ms = self.hedge.hedge_after(
                generalize_signature(slot.option.fragment.signature)
            )
        if self.reroute is not None and self.reroute.migratable(slot.execution):
            arm = self._subscribe
        return RacedWork(
            primary,
            partial(self._second_leg, slot, trace),
            after_ms,
            arm,
        )

    def _subscribe(self, interrupt):
        epoch = self.runtime.integrator.calibration_epoch
        return epoch.subscribe(lambda _value: interrupt())

    def _second_leg(self, slot, trace, t_fire, consumed_ms):
        """Built when a trigger fires: replica choice, availability and
        the fanout cap reflect the state *then*.  The timer (it does not
        peek: ``consumed_ms`` is None) hedges, an interrupt migrates."""
        if consumed_ms is None:
            return self._hedge_leg(slot, trace, t_fire)
        return self._reroute_leg(slot, trace, t_fire, consumed_ms)

    def _hedge_leg(self, slot, trace, t_fire):
        backup = self._target(slot, t_fire)
        if backup is None:
            return None
        queue = self.runtime.queue_for(backup.server)
        metrics = get_obs().metrics
        if not self.hedge.allow_backup(queue.depth):
            self.hedge.suppressed += 1
            metrics.counter(
                "hedge_suppressed_total", server=backup.server
            ).inc()
            return None
        backup_work = self._fire(slot, backup, t_fire, trace, "hedge_backup")
        if backup_work is None:
            return None
        metrics.counter("hedge_fired_total", server=backup.server).inc()
        return backup_work, False

    def _reroute_leg(self, slot, trace, t_fire, consumed_ms):
        # Checkpoint the consumed batches, then learn the tail's demand
        # by executing the fragment at the target now.
        point = self.reroute.checkpoint(slot.execution, consumed_ms)
        if point is None:
            self.reroute.note_declined("drained")
            return None
        target = self._target(slot, t_fire)
        if target is None:
            return self._decline("no-replica")
        tail = self._fire(
            slot,
            target,
            t_fire,
            trace,
            "reroute",
            point,
            cut_row=point.cut_row,
            batches_kept=point.batches_kept,
        )
        if tail is None:
            return self._decline("target-down")
        get_obs().metrics.counter(
            "reroute_fired_total", server=target.server
        ).inc()
        return tail, True

    def _decline(self, reason: str) -> None:
        self.reroute.note_declined(reason)
        get_obs().metrics.counter(
            "reroute_declined_total", reason=reason
        ).inc()

    def _target(
        self, slot: FragmentSlot, t_fire: float
    ) -> Optional[FragmentOption]:
        """The replica a second leg goes to: the first entry of the
        fragment's ranked Section 4.1 cluster — drawn from what its own
        compilation admitted — that is not the primary and is believed
        available at the instant the leg fires."""
        qcc = self.runtime.integrator.qcc
        for option in qcc.ranked_cluster(slot.option, slot.siblings):
            if option.server != slot.option.server and qcc.is_available(
                option.server, t_fire
            ):
                return option
        return None

    def _fire(
        self,
        slot: FragmentSlot,
        target: FragmentOption,
        t_fire: float,
        trace: QueryTrace,
        name: str,
        point=None,
        **attributes: object,
    ) -> Optional[Work]:
        """Execute *slot*'s fragment at *target* as its second leg, the
        *name* span (hence its queue spans) under the dispatch span.  No
        siblings: a leg that may lose, or ships only a tail, is never
        substituted, and only its failure is reported here (settle
        decides what the calibrator learns).  Sets the slot's ``leg`` —
        (option, execution, span, migration checkpoint or None, queue
        spans) — and returns the leg's work: the whole fragment, or the
        tail past *point*; None if the target is down."""
        meta_wrapper = self.runtime.integrator.meta_wrapper
        try:
            target, execution = meta_wrapper.execute_option(
                target, t_fire, trace=trace
            )
        except ServerUnavailable:
            meta_wrapper.note_failure(target.server, t_fire)
            return None
        span = trace.begin_child(
            slot.span,
            name,
            t_fire,
            fragment=slot.choice.fragment.fragment_id,
            primary=slot.option.server,
            server=target.server,
            **attributes,
            fired_ms=t_fire,
        )
        demand_ms = (
            execution.observed_ms
            if point is None
            else tail_demand_ms(execution, point.cut_row)
        )
        work, spans = self.work(
            self.runtime.queue_for(target.server), demand_ms, trace, span
        )
        slot.leg = (target, execution, span, point, spans)
        return work

    def settle(self, slot, outcome, t_dispatch, trace):
        if slot.leg is None:
            settled = super().settle(
                slot, outcome.completion, t_dispatch, trace
            )
        elif slot.leg[3] is None:  # no migration checkpoint: a hedge
            settled = self._settle_hedged(slot, outcome, t_dispatch, trace)
        else:
            settled = self._settle_rerouted(slot, outcome, t_dispatch, trace)
        if self.hedge is not None:
            # Every fragment's effective latency feeds the hedge delay.
            self.hedge.observe(
                generalize_signature(settled.option.fragment.signature),
                settled.execution.observed_ms,
            )
        return settled

    def _settle_hedged(self, slot, outcome, t_dispatch, trace):
        completion = outcome.completion
        winner, execution = slot.option, slot.execution
        loser, backup_execution, span, _, lost_spans = slot.leg
        won_spans = slot.queue_spans
        effective_ms = completion.sojourn_ms
        backup_won = outcome.winner == "second"
        winner_name = "backup" if backup_won else "primary"
        if backup_won:
            winner, loser, execution = loser, winner, backup_execution
            won_spans, lost_spans = lost_spans, won_spans
            # The fragment's real latency includes the hedge wait
            # before the backup was even fired.
            effective_ms = completion.finished_ms - t_dispatch
            get_obs().metrics.counter(
                "hedge_backup_wins_total", server=winner.server
            ).inc()
        wasted_ms = outcome.consumed_ms
        # The loser was cancelled the instant the winner finished.
        settle_queue_spans(won_spans, completion)
        cancel_queue_spans(lost_spans, completion.finished_ms, wasted_ms)
        self.runtime.integrator.meta_wrapper.note_cancelled_leg(
            "hedge",
            loser,
            wasted_ms,
            completion.finished_ms,
            trace,
            server=loser.server,
        )
        trace.end(
            span, completion.finished_ms, winner=winner_name, wasted_ms=wasted_ms
        )
        self.hedge.note_outcome(winner_name, wasted_ms)
        return self.settled(
            winner,
            execution,
            completion,
            effective_ms,
            hedged=True,
            hedge_fired=True,
            hedge_winner=winner_name,
            backup_wins=backup_won,
            hedge_wasted_ms=wasted_ms,
        )

    def _settle_rerouted(self, slot, outcome, t_dispatch, trace):
        completion = outcome.completion
        execution = slot.execution
        target, target_execution, span, point, tail_spans = slot.leg
        # The primary was cancelled the instant the migration fired.
        cancel_queue_spans(
            slot.queue_spans, outcome.fired_ms, outcome.consumed_ms
        )
        settle_queue_spans(tail_spans, completion)
        migrated_rows = execution.row_count - point.cut_row
        # Service past the checkpointed boundary is the partial batch
        # the target re-ships: the price paid for a clean cut.
        wasted_ms = max(0.0, outcome.consumed_ms - point.kept_demand_ms)
        self.reroute.note_fired(migrated_rows, wasted_ms)
        self.runtime.integrator.meta_wrapper.note_cancelled_leg(
            "reroute",
            slot.option,
            wasted_ms,
            completion.finished_ms,
            trace,
            from_server=slot.option.server,
            to_server=target.server,
            cut_row=point.cut_row,
        )
        trace.end(
            span,
            completion.finished_ms,
            migrated_rows=migrated_rows,
            wasted_ms=wasted_ms,
        )
        merged = dataclasses.replace(
            execution,
            rows=merge_partial_rows(
                execution.rows, target_execution.rows, point.cut_row
            ),
        )
        return self.settled(
            slot.option,
            merged,
            completion,
            # Primary dispatch through the migrated tail's completion.
            completion.finished_ms - t_dispatch,
            learned=execution,
            rerouted=True,
            reroute_to=target.server,
            reroute_cut_row=point.cut_row,
            reroute_wasted_ms=wasted_ms,
        )
