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
emerges from query concurrency itself.  :class:`HedgedDispatch` and
:class:`MigratableDispatch` add a second leg at the next HRW replica.

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
from typing import Dict, List, Optional, Sequence

from ..core.load_balance import rank_servers
from ..core.routing import generalize_signature
from ..obs import (
    NULL_TRACE,
    QueryTrace,
    QueueSpanRecorder,
    Span,
    SpanTag,
    get_obs,
)
from ..sim import (
    AllOf,
    EventScheduler,
    HedgedWork,
    MigratableWork,
    ServerQueue,
    ServerUnavailable,
    Work,
)

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
from .hedging import DEFAULT_DEPTH_CAP, HedgePolicy, make_policy
from .integrator import (
    II_QUEUE,
    DispatchStrategy,
    FederatedResult,
    FragmentSlot,
    InformationIntegrator,
    Settled,
)
from .merge import build_merge_plan as build_merge_plan
from .nicknames import FederationError
from .rerouting import (
    ReroutePolicy,
    batch_schedule,
    make_reroute_policy,
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

    ``discipline`` selects the per-server contention model (``"ps"``
    processor sharing or ``"fifo"``); every queue serves at the
    sequential runtime's speed.  The runtime owns the integrator's clock
    via its scheduler and disables the integrator's own clock
    advancement.

    ``hedge_after_ms`` selects :class:`HedgedDispatch` (the static
    hedge delay; per-signature p95 derivation takes over once latency
    history accumulates, see :mod:`repro.fed.hedging`) and
    ``reroute_batch_rows`` :class:`MigratableDispatch` (bounded
    mid-query batch re-routing, see :mod:`repro.fed.rerouting`).  With
    both ``None`` (the default) dispatch is plain
    :class:`QueuedDispatch`; the two are mutually exclusive (both race
    a fragment against a replica, and combining them would
    double-release cancelled work).
    """

    def __init__(
        self,
        integrator: InformationIntegrator,
        classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
        discipline: str = "ps",
        hedge_after_ms: Optional[float] = None,
        hedge_depth_cap: int = DEFAULT_DEPTH_CAP,
        reroute_batch_rows: Optional[int] = None,
    ):
        if hedge_after_ms is not None and reroute_batch_rows is not None:
            raise ValueError(
                "hedged dispatch and mid-query re-routing are mutually "
                "exclusive; enable one of hedge_after_ms / "
                "reroute_batch_rows"
            )
        self.integrator = integrator
        self.hedge_after_ms = hedge_after_ms
        self.hedging: Optional[HedgePolicy] = make_policy(
            hedge_after_ms, hedge_depth_cap
        )
        self.reroute_batch_rows = reroute_batch_rows
        self.rerouting: Optional[ReroutePolicy] = make_reroute_policy(
            reroute_batch_rows
        )
        if self.hedging is not None:
            self.strategy: QueuedDispatch = HedgedDispatch(self, self.hedging)
        elif self.rerouting is not None:
            self.strategy = MigratableDispatch(self, self.rerouting)
        else:
            self.strategy = QueuedDispatch(self)
        integrator.advance_clock = False
        self.scheduler = EventScheduler(integrator.clock)
        self.discipline = discipline
        self.queues: Dict[str, ServerQueue] = {}
        self.ii_queue = ServerQueue(
            II_QUEUE, self.scheduler, discipline=discipline
        )
        self.admission = AdmissionController(
            classes, {II_QUEUE: self.ii_queue}, t0_ms=self.scheduler.now
        )
        #: Installed on every queue the first time a traced query runs;
        #: None until then so untraced runs submit zero extra events.
        self._span_recorder: Optional[QueueSpanRecorder] = None
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
            queue = ServerQueue(
                server, self.scheduler, discipline=self.discipline
            )
            self.queues[server] = queue
            self.admission.backlog_sources[server] = queue
            if self._span_recorder is not None:
                queue.events = self._span_recorder
        return queue

    def _ensure_span_recorder(self) -> None:
        """Install the shared queue-hook span recorder on every queue.

        Called only from traced query coroutines, so a runtime that
        never traces keeps ``NULL_QUEUE_EVENTS`` on every queue and the
        scheduler's disabled fast path (no start-notification events on
        the heap) stays byte-identical.
        """
        if self._span_recorder is None:
            self._span_recorder = QueueSpanRecorder()
            self.ii_queue.events = self._span_recorder
            for queue in self.queues.values():
                queue.events = self._span_recorder

    # -- submission ------------------------------------------------------

    def submit_at(
        self,
        t_ms: float,
        sql: str,
        klass: Optional[str] = None,
        label: Optional[str] = None,
        staleness_tolerance_ms: Optional[float] = None,
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
        self.scheduler.spawn(
            self._query_process(handle, staleness_tolerance_ms), at_ms=t_ms
        )
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

    def _query_process(
        self, handle: QueryHandle, staleness_tolerance_ms: Optional[float]
    ):
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
                self._ensure_span_recorder()
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
                record, trace, root, self.strategy, staleness_tolerance_ms
            )
            obs.metrics.histogram(
                "query_sojourn_ms", klass=handle.klass
            ).observe(handle.result.response_ms)
        except FederationError as exc:
            handle.error = exc
        finally:
            # On every exit (shed, failed, completed) the scheduler
            # still counts this process as live.
            in_flight.set(self.scheduler.live_processes - 1)


class QueuedDispatch(DispatchStrategy):
    """Contend: push each fragment's raw demand through its server's
    capacity queue and resume when the slowest finishes; the merge goes
    through the integrator's own queue.  QCC learns the queue-inflated
    sojourns, at settle time."""

    def __init__(self, runtime: ConcurrentRuntime, policy=None):
        self.runtime = runtime
        #: The hedge or re-route policy of the subclass that has one.
        self.policy = policy

    def dispatch(self, slots, t_dispatch, trace):
        outcomes = yield AllOf([self.request(slot, trace) for slot in slots])
        get_obs().tracer.resume(trace)
        return [
            self.settle(slot, outcome, t_dispatch, trace)
            for slot, outcome in zip(slots, outcomes)
        ]

    def merge(self, demand_ms, t_ms, trace, span):
        # The join resumed at the slowest fragment's finish, so the
        # scheduler's clock already stands at *t_ms*.
        ii_queue = self.runtime.ii_queue
        completion = yield self.work(ii_queue, demand_ms, trace, span)
        get_obs().metrics.gauge("sched_queue_depth", server=II_QUEUE).set(
            ii_queue.depth
        )
        return completion

    # -- per-slot hooks --------------------------------------------------

    def request(self, slot: FragmentSlot, trace: QueryTrace):
        """The scheduler request that runs *slot*'s fragment."""
        return self.work(
            self.runtime.queue_for(slot.option.server),
            slot.execution.observed_ms,
            trace,
            slot.span,
        )

    def settle(
        self, slot: FragmentSlot, outcome, t_dispatch: float, trace: QueryTrace
    ) -> Settled:
        """Resolve what :meth:`request` resumed with."""
        return self.settled(
            slot.option, slot.execution, outcome, outcome.sojourn_ms
        )

    # -- shared by every queued strategy --------------------------------

    @staticmethod
    def work(
        queue: ServerQueue, demand_ms: float, trace: QueryTrace, span: Span
    ) -> Work:
        """*demand_ms* at *queue*, its queue_wait/service spans parented
        under *span* (untagged work skips the recorder)."""
        tag = None if trace is NULL_TRACE else SpanTag(trace, span)
        return Work(queue, demand_ms, tag=tag)

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

    def backup_option(
        self, primary: FragmentOption, t_fire: float
    ) -> Optional[FragmentOption]:
        """The replica a second leg (hedge backup or migration) targets.

        Candidates are the fragment's compile-time siblings with an
        *identical* plan on a different server, near the cluster's
        cheapest cost (same exchangeability rule as Section 4.1
        balancing), walked in HRW rank order: the highest-ranked one
        believed available at the instant the leg fires wins.
        """
        ii = self.runtime.integrator
        matches = [
            option
            for option in ii.meta_wrapper.sibling_options(
                primary.fragment.signature
            )
            if option.server != primary.server
            and option.plan_signature == primary.plan_signature
            and option.is_viable
        ]
        if not matches:
            return None
        ceiling = min(
            [o.calibrated.total for o in matches]
            + [primary.calibrated.total]
        ) * (1.0 + self.policy.config.band)
        by_server: Dict[str, FragmentOption] = {}
        for option in matches:
            if option.calibrated.total <= ceiling:
                by_server.setdefault(option.server, option)
        for server in rank_servers(
            primary.fragment.signature, sorted(by_server)
        ):
            if ii.qcc is None or ii.qcc.is_available(server, t_fire):
                return by_server[server]
        return None

    def fire_leg(
        self,
        slot: FragmentSlot,
        target: FragmentOption,
        t_fire: float,
        trace: QueryTrace,
        name: str,
        **attributes: object,
    ) -> Optional[tuple]:
        """Execute *slot*'s fragment at *target* as the second leg of a
        race, its *name* span (hence its queue lifecycle or cancelled
        slice) under the dispatch span.  ``report=False``: a leg that
        may lose, or ships only a tail, must never feed the calibrator.
        Returns the slot's new ``leg``, or None if the target is down."""
        get_obs().tracer.resume(trace)
        try:
            target, execution = (
                self.runtime.integrator.meta_wrapper.execute_option(
                    target, t_fire, allow_substitution=False, report=False
                )
            )
        except ServerUnavailable:
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
        slot.leg = (target, execution, span)
        return slot.leg


class HedgedDispatch(QueuedDispatch):
    """Race each fragment against a timer-armed backup at the next
    HRW-ranked replica; only the winner flows onward (runtime log,
    calibrator, merge), the cancelled loser leaves a waste metric."""

    def request(self, slot, trace):
        policy = self.policy
        option = slot.option

        def backup_factory(t_fire: float) -> Optional[Work]:
            # Built when the hedge timer fires: replica choice,
            # availability and the fanout cap reflect the state *then*.
            backup = self.backup_option(option, t_fire)
            if backup is None:
                return None
            queue = self.runtime.queue_for(backup.server)
            if not policy.allow_backup(queue.depth):
                policy.suppressed += 1
                get_obs().metrics.counter(
                    "hedge_suppressed_total", server=backup.server
                ).inc()
                return None
            leg = self.fire_leg(slot, backup, t_fire, trace, "hedge_backup")
            if leg is None:
                return None
            _, execution, span = leg
            get_obs().metrics.counter(
                "hedge_fired_total", server=backup.server
            ).inc()
            return self.work(queue, execution.observed_ms, trace, span)

        return HedgedWork(
            primary=super().request(slot, trace),
            hedge_after_ms=policy.hedge_after(
                generalize_signature(option.fragment.signature)
            ),
            backup_factory=backup_factory,
        )

    def settle(self, slot, outcome, t_dispatch, trace):
        completion = outcome.completion
        winner, execution = slot.option, slot.execution
        effective_ms = completion.sojourn_ms
        tags: Dict[str, object] = {}
        if outcome.hedged:
            loser, backup_execution, span = slot.leg
            if outcome.winner == "backup":
                winner, loser, execution = loser, winner, backup_execution
                # The fragment's real latency includes the hedge wait
                # before the backup was even fired.
                effective_ms = completion.finished_ms - t_dispatch
                get_obs().metrics.counter(
                    "hedge_backup_wins_total", server=winner.server
                ).inc()
            self.runtime.integrator.meta_wrapper.note_hedge_waste(
                loser, outcome.wasted_ms, completion.finished_ms
            )
            trace.end(
                span,
                completion.finished_ms,
                winner=outcome.winner,
                wasted_ms=outcome.wasted_ms,
            )
            tags = dict(
                hedged=True,
                hedge_fired=True,
                hedge_winner=outcome.winner,
                backup_wins=outcome.winner == "backup",
                hedge_wasted_ms=outcome.wasted_ms,
            )
        self.policy.note_outcome(
            outcome.hedged, outcome.winner, outcome.wasted_ms
        )
        self.policy.observe(
            generalize_signature(winner.fragment.signature), effective_ms
        )
        return self.settled(
            winner, execution, completion, effective_ms, **tags
        )


class MigratableDispatch(QueuedDispatch):
    """Let each fragment move its unshipped batches to the next
    HRW-ranked identical-plan replica when the calibration epoch bumps
    mid-flight.  The merged prefix + tail rows flow onward at the true
    end-to-end latency; QCC still learns the primary's raw demand, never
    counterfactual per-server costs (see :mod:`repro.fed.rerouting`)."""

    def request(self, slot, trace):
        policy = self.policy
        epoch = self.runtime.integrator.calibration_epoch
        schedule = batch_schedule(slot.execution, policy.config.batch_rows)

        def arm(interrupt):
            if len(schedule) <= 1:
                # A single-batch fragment has no boundary to migrate at.
                return lambda: None
            return epoch.subscribe(lambda _value: interrupt())

        def migrate(t_fire: float, consumed_ms: float) -> Optional[Work]:
            # Checkpoint the consumed batches, then learn the tail's
            # demand by executing the fragment at the target now.
            point = policy.checkpoint(schedule, consumed_ms)
            if not policy.should_migrate(schedule, point):
                policy.note_declined("drained")
                return None
            target = self.backup_option(slot.option, t_fire)
            if target is None:
                self._decline("no-replica")
                return None
            leg = self.fire_leg(
                slot,
                target,
                t_fire,
                trace,
                "reroute",
                cut_row=point.cut_row,
                batches_kept=point.batches_kept,
            )
            if leg is None:
                self._decline("target-down")
                return None
            _, execution, span = leg
            slot.leg = (*leg, point)
            get_obs().metrics.counter(
                "reroute_fired_total", server=target.server
            ).inc()
            return self.work(
                self.runtime.queue_for(target.server),
                tail_demand_ms(execution, point.cut_row),
                trace,
                span,
            )

        # The primary is submitted exactly as a plain request, so
        # untriggered re-routing is byte-identical to plain dispatch.
        return MigratableWork(
            primary=super().request(slot, trace), arm=arm, migrate=migrate
        )

    def _decline(self, reason: str) -> None:
        self.policy.note_declined(reason)
        get_obs().metrics.counter(
            "reroute_declined_total", reason=reason
        ).inc()

    def settle(self, slot, outcome, t_dispatch, trace):
        completion = outcome.completion
        if not outcome.migrated:
            return super().settle(slot, completion, t_dispatch, trace)
        execution = slot.execution
        target, target_execution, span, point = slot.leg
        migrated_rows = execution.row_count - point.cut_row
        # Service past the checkpointed boundary is the partial batch
        # the target re-ships: the price paid for a clean cut.
        wasted_ms = max(0.0, outcome.consumed_ms - point.kept_demand_ms)
        self.policy.note_fired(migrated_rows, wasted_ms)
        self.runtime.integrator.meta_wrapper.note_reroute(
            slot.option,
            target,
            cut_row=point.cut_row,
            wasted_ms=wasted_ms,
            t_ms=completion.finished_ms,
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
