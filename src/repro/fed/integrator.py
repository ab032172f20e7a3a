"""The Information Integrator (II): federated compile + runtime phases.

Reproduces the operational flow of the paper's Figure 1/2:

Compile time — decompose the federated query into fragments, collect
candidate plans and (calibrated) costs through the meta-wrapper,
enumerate global plans, let the calibration pick the winner.

Runtime — dispatch the chosen fragment plans through the meta-wrapper,
report each settled fragment's response time (or its server's failure)
to QCC through it, merge the fragment results locally, and log
completion with the query patroller.  Fragments execute concurrently;
the response time is ``max(fragment times) + merge time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Generator, List, NamedTuple, Optional, Tuple

from ..obs import NULL_TRACE, QueryTrace, Span, get_obs
from ..obs.profile import NULL_PROFILER, PlanProfile, get_profiler
from ..sqlengine import (
    Catalog,
    MaterializedInput,
    PhysicalPlan,
    REFERENCE_PROFILE,
    Row,
    Schema,
    ServerProfile,
    SqlError,
    execute_plan,
)
from ..sqlengine.storage import StorageManager
from ..sim import (
    Completion,
    Delay,
    RemoteExecution,
    ServerUnavailable,
    VirtualClock,
)
from ..core.calibration import Calibration
from ..wrappers.meta import MetaWrapper
from .decomposer import DecomposedQuery, decompose
from .global_optimizer import (
    FragmentOption,
    GlobalPlan,
    describe_plan,
    enumerate_global_plans,
)
from .merge import build_merge_plan
from .nicknames import FederationError, NicknameRegistry
from .patroller import PatrolRecord, QueryPatroller
from .plan_cache import PlanCache, plan_key


#: Queue name of the integrator's own merge stage.
II_QUEUE = "II"


@dataclass(frozen=True, slots=True)
class FragmentRecord:
    """What one fragment of a finished query ran as, in scalars: the
    option whose rows flowed on (a Section 4.1 substitute or a winning
    hedge backup, when one took over) and what it cost."""

    server: str
    plan_signature: str
    #: The option's estimated and calibrated totals.
    estimated_total: float
    calibrated_total: float
    observed_ms: float
    row_count: int


@dataclass
class FederatedResult:
    """The integrator's answer to one federated query: the rows and
    what producing them cost, as scalars.

    Nothing the query worked with is kept — not the compiled plan, the
    merge plan over the fragments' rows, nor the fragments' executions —
    so a result costs its rows and a few numbers for as long as its
    caller holds it."""

    rows: List[Row]
    schema: Schema
    response_ms: float
    #: The chosen global plan: its id, the servers it routed the
    #: fragments to (before any substitution or second leg) and its
    #: estimated merge and total costs.
    plan_id: str
    servers: FrozenSet[str]
    merge_cost: float
    total_cost: float
    #: Per fragment id, in dispatch order.
    fragments: Dict[str, FragmentRecord]
    record: PatrolRecord
    merge_ms: float
    remote_ms: float
    retries: int = 0
    trace: Optional[QueryTrace] = None
    #: operator-level profile (only while profiling is enabled)
    profile: Optional[PlanProfile] = None
    #: fragments migrated mid-flight by the re-routing strategy (always
    #: 0 under every other strategy)
    reroutes: int = 0

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def describe(self) -> str:
        """The plan line of :meth:`GlobalPlan.describe`, over the
        fragments as they ran."""
        return describe_plan(
            self.plan_id,
            (
                (fragment_id, f.server, f.estimated_total, f.calibrated_total)
                for fragment_id, f in self.fragments.items()
            ),
            self.merge_cost,
            self.total_cost,
        )

    def executed_plans(
        self,
    ) -> Tuple[List[Tuple[str, FragmentRecord, PhysicalPlan]], PhysicalPlan]:
        """Each fragment, in dispatch order, with the plan tree that ran
        it, and the II merge plan: read off :attr:`profile` (so only a
        profiled query has them).

        The profile's roots come in first-execution order, the merge
        plan last; before the fragments' plans sit whatever else ran
        while profiling (QCC's probe queries, a failed attempt's
        fragments).  Walking back from the merge, each fragment takes
        the latest unclaimed root with its plan signature.
        """
        *candidates, merge_plan = self.profile.roots()
        paired: List[Tuple[str, FragmentRecord, PhysicalPlan]] = []
        for fragment_id, fragment in reversed(self.fragments.items()):
            index = max(
                i
                for i, node in enumerate(candidates)
                if node.signature() == fragment.plan_signature
            )
            paired.append((fragment_id, fragment, candidates.pop(index)))
        paired.reverse()
        return paired, merge_plan


@dataclass(slots=True)
class FragmentSlot:
    """One fragment of the chosen plan between execution and
    settlement: the record every dispatch strategy works on."""

    #: The compile-time choice and the option that actually ran (they
    #: differ after a Section 4.1 substitution), with its rows and raw
    #: service demand.
    choice: FragmentOption
    option: FragmentOption
    execution: RemoteExecution
    #: The fragment's ``dispatch`` span.
    span: Span
    #: What the query's compilation admitted for this fragment
    #: (:meth:`GlobalPlan.siblings_of`): where a second leg may go.
    siblings: Tuple[FragmentOption, ...]
    #: Strategy-private: the queued work's queue_wait/service spans
    #: (None when untraced), and the second leg of a race, once one has
    #: fired.
    queue_spans: Optional[Tuple[Span, Span]] = None
    leg: Optional[tuple] = None


class Settled(NamedTuple):
    """What a strategy makes of one :class:`FragmentSlot`."""

    #: The option whose result flows on (a hedge backup when it won),
    #: with its rows at the fragment's effective latency.
    option: FragmentOption
    execution: RemoteExecution
    #: What QCC learns from: the same, unless the fragment migrated.
    learned: RemoteExecution
    completion: Completion
    #: Extra ``dispatch``-span attributes describing a race.
    tags: Dict[str, object]


class DispatchStrategy:
    """How executed fragments, and then the merge, turn into latencies:
    the one parameter of :meth:`InformationIntegrator.lifecycle`.  Both
    methods are generators; what they yield goes to the lifecycle's
    driver, what they return comes back to the lifecycle."""

    def dispatch(
        self, slots: List[FragmentSlot], t_dispatch: float, trace: QueryTrace
    ) -> Generator[object, object, List[Settled]]:
        """Settle every slot, in order."""
        raise NotImplementedError

    def merge(
        self, demand_ms: float, t_ms: float, trace: QueryTrace, span: Span
    ) -> Generator[object, object, Completion]:
        """Charge the II-side merge's *demand_ms*, submitted at *t_ms*."""
        raise NotImplementedError


class _Uncontended(DispatchStrategy):
    """Nothing else is in flight: no queues, sojourn == demand."""

    @staticmethod
    def _alone(queue: str, t_ms: float, demand_ms: float) -> Completion:
        """*demand_ms* submitted at *t_ms* to an idle *queue*."""
        return Completion(
            queue=queue,
            queued_ms=t_ms,
            finished_ms=t_ms + demand_ms,
            demand_ms=demand_ms,
            service_ms=demand_ms,
            depth_at_arrival=1,
            contended=False,
        )

    def dispatch(self, slots, t_dispatch, trace):
        yield from ()  # nothing to wait for
        settled = []
        for slot in slots:
            ran = slot.execution
            alone = self._alone(slot.option.server, t_dispatch, ran.observed_ms)
            settled.append(Settled(slot.option, ran, ran, alone, {}))
        return settled

    def merge(self, demand_ms, t_ms, trace, span):
        yield from ()
        return self._alone(II_QUEUE, t_ms, demand_ms)


UNCONTENDED = _Uncontended()


def _end_dispatch(
    trace: QueryTrace,
    slot: FragmentSlot,
    option: FragmentOption,
    execution: RemoteExecution,
    t_ms: float,
    **attributes: object,
) -> None:
    """Close *slot*'s dispatch span on the option whose result flows on."""
    estimated = option.estimated.total
    trace.end(
        slot.span,
        t_ms,
        server=option.server,
        estimated_total=estimated,
        calibrated_total=option.calibrated.total,
        calibration_factor=(
            option.calibrated.total / estimated if estimated > 0 else None
        ),
        observed_ms=execution.observed_ms,
        substituted=option.server != slot.choice.server,
        **attributes,
    )


class InformationIntegrator:
    """Federated query processor; its meta-wrapper's calibration routes."""

    #: Virtual ms charged to every query's first compilation.
    compile_overhead_ms = 2.0
    #: Virtual ms a failed attempt costs before the retry recompiles.
    failure_penalty_ms = 250.0
    max_retries = 3

    def __init__(
        self,
        registry: NicknameRegistry,
        meta_wrapper: MetaWrapper,
        clock: Optional[VirtualClock] = None,
        enable_plan_cache: bool = True,
    ):
        self.meta_wrapper = meta_wrapper
        self.clock = clock if clock is not None else VirtualClock()
        #: The hardware II merges on (global plans price their merge on it).
        self.profile: ServerProfile = REFERENCE_PROFILE
        #: The calibration II ticks, reads its factor from, reports to
        #: and asks for the plan to run: always the meta-wrapper's.
        self.qcc: Calibration = meta_wrapper.qcc
        #: Whether :meth:`submit` moves the clock; a scheduler that owns
        #: the clock (``ConcurrentRuntime``) turns this off.
        self.advance_clock = True
        self.patroller = QueryPatroller()
        #: The plan cache shares the calibration's epoch, so
        #: recalibrations and availability transitions invalidate cached
        #: compilations; the registry and the replica manager bump it too.
        self.calibration_epoch = self.qcc.epoch
        self.plan_cache = (
            PlanCache(self.calibration_epoch) if enable_plan_cache else None
        )
        self._replica_manager = None
        self.registry = registry
        self.replica_manager = None
        # Merge plans touch no stored tables; a bare storage manager is
        # enough for the execution context.
        self._merge_storage = StorageManager(Catalog())

    # -- wiring ----------------------------------------------------------

    @property
    def registry(self):
        return self._registry

    @registry.setter
    def registry(self, registry) -> None:
        """Swap the nickname registry (also valid after construction).

        The registry is bound to the calibration epoch so later topology
        changes invalidate cached plans, and plans compiled against the
        old topology are dropped immediately.
        """
        self._registry = registry
        registry.bind_epoch(self.calibration_epoch)
        if self.plan_cache is not None:
            self.plan_cache.clear()

    @property
    def replica_manager(self):
        return self._replica_manager

    @replica_manager.setter
    def replica_manager(self, manager) -> None:
        """Attach a replica manager (also valid after construction).

        The manager is bound to the calibration epoch so replica writes
        and syncs invalidate cached plans, and any plans compiled before
        the manager existed (without its freshness filters) are dropped.
        """
        self._replica_manager = manager
        if manager is not None:
            manager.bind_epoch(self.calibration_epoch)
        # QCC's timeline samples include per-server replica staleness
        # once it can see the manager.
        self.qcc.replica_manager = manager
        if self.plan_cache is not None:
            self.plan_cache.clear()

    # -- compile time ----------------------------------------------------

    def compile(
        self,
        sql: str,
        t_ms: Optional[float] = None,
        excluded_servers: Optional[set] = None,
        trace: QueryTrace = NULL_TRACE,
    ) -> Tuple[DecomposedQuery, List[GlobalPlan]]:
        """Compile *sql* into ranked global plans (no execution), its
        spans and the meta-wrapper's events going to *trace*.

        With a replica manager attached, candidate servers whose copies
        are older than its tolerance are excluded — runtime-aware replica
        currency, re-evaluated at every compilation.

        Repeated compilations are served from the plan cache while the
        calibration epoch (and any replica-freshness horizon) says the
        cost surface has not moved, so a hit returns exactly the plans a
        fresh compilation would produce.  Once it has moved, the cached
        decomposition is re-priced: every step below but ``decompose``.
        """
        t = self.clock.now if t_ms is None else t_ms
        cache = self.plan_cache
        key = plan_key(sql, excluded_servers)
        topology = self.registry.version
        decomposed = None
        if cache is not None:
            entry = cache.get(key, t)
            if entry is not None:
                trace.event(
                    "plan_cache",
                    t,
                    hit=True,
                    epoch=entry.epoch,
                    plans=len(entry.plans),
                )
                return entry.decomposed, list(entry.plans)
            decomposed = cache.decomposition(key, topology)
        span = trace.begin("decompose", t, sql=sql)
        if decomposed is None:
            decomposed = decompose(sql, self.registry)
        trace.end(
            span,
            t,
            fragments=[f.fragment_id for f in decomposed.fragments],
        )
        span = trace.begin("plan_enumeration", t)
        plans = self._plans_for(
            decomposed, t, set(excluded_servers or ()), trace
        )
        # The servers have priced the block: the cache keeps the
        # decomposition, not the plan nodes it shared with them.
        decomposed.block.plan_space = None
        trace.end(
            span,
            t,
            plans=len(plans),
            best_estimate=plans[0].total_cost if plans else None,
        )
        if cache is not None:
            # The entry expires when replica currency could next change
            # its candidate set.
            manager = self._replica_manager
            cache.put(
                key,
                decomposed,
                plans,
                valid_until_ms=(
                    None
                    if manager is None
                    else manager.freshness_horizon(decomposed.fragments, t)
                ),
                topology=topology,
            )
            trace.event("plan_cache", t, hit=False, epoch=cache.epoch.value)
        return decomposed, plans

    def _plans_for(
        self,
        decomposed: DecomposedQuery,
        t_ms: float,
        excluded_servers: set,
        trace: QueryTrace,
    ) -> List[GlobalPlan]:
        manager = self._replica_manager
        options: Dict[str, List[FragmentOption]] = {}
        for fragment in decomposed.fragments:
            fragment_options = self.meta_wrapper.compile_fragment(
                fragment, t_ms, trace
            )
            allowed = (
                None
                if manager is None
                else manager.fresh_servers(fragment.nicknames, t_ms)
            )
            options[fragment.fragment_id] = [
                o
                for o in fragment_options
                if o.server not in excluded_servers
                and (allowed is None or o.server in allowed)
            ]
        return enumerate_global_plans(
            decomposed,
            options,
            self.profile,
            ii_calibration_factor=self.qcc.ii_factor(),
        )

    # -- run time ------------------------------------------------------------

    def open_query(
        self,
        sql: str,
        t_ms: float,
        label: Optional[str] = None,
        **root_attributes: object,
    ) -> Tuple[PatrolRecord, QueryTrace, Span]:
        """Log *sql* with the patroller and open its trace and ``query``
        root span: what every driver does before :meth:`lifecycle` (the
        concurrent runtime decides admission between the two)."""
        record = self.patroller.submit(sql, t_ms, label=label)
        trace = get_obs().tracer.start(record.query_id, sql, t_ms)
        root = trace.begin("query", t_ms, **root_attributes)
        return record, trace, root

    def submit(
        self,
        sql: str,
        label: Optional[str] = None,
        t_ms: Optional[float] = None,
    ) -> FederatedResult:
        """Process one federated query end to end, nothing else in flight.

        The uncontended driver of :meth:`lifecycle`: only ``Delay``s
        surface here, which the lifecycle has already booked as elapsed
        time, and the clock moves by ``response_ms`` at the end (a
        scheduler stepping through the delays could land one ulp off).
        """
        t0 = self.clock.now if t_ms is None else t_ms
        query = self.open_query(sql, t0, label)
        process = self.lifecycle(*query, UNCONTENDED)
        try:
            while True:
                next(process)
        except StopIteration as done:
            result = done.value
        if self.advance_clock and t_ms is None:
            self.clock.advance(result.response_ms)
        return result

    def lifecycle(
        self,
        record: PatrolRecord,
        trace: QueryTrace,
        root: Span,
        strategy: DispatchStrategy,
    ) -> Generator[object, object, FederatedResult]:
        """The one query lifecycle: compile, route, dispatch (retrying
        around failed servers), merge, report.

        Yields scheduler requests (its own ``Delay``s plus whatever
        *strategy* yields) to its driver and returns the result; a query
        that cannot be compiled is logged as failed and raises why (a
        :class:`SqlError`: ``BindError``, :class:`FederationError`, ...),
        one that runs out of retries likewise raises a
        :class:`FederationError`.
        """
        obs = get_obs()
        mw = self.meta_wrapper
        t0 = record.submitted_ms
        obs.metrics.counter("ii_queries_total").inc()
        self.qcc.tick(t0)

        elapsed = self.compile_overhead_ms
        excluded: set = set()
        retries = 0
        # Retry attempts recompile at the *advanced* clock: the failed
        # attempt and its penalty have consumed virtual time, and a
        # compilation stamped with the stale t0 would consult load,
        # availability and replica freshness as of before the failure.
        t_attempt = t0
        last_error: Optional[ServerUnavailable] = None

        while retries <= self.max_retries:
            compile_span = trace.begin("compile", t_attempt, attempt=retries)
            try:
                decomposed, plans = self.compile(
                    record.sql, t_attempt, excluded, trace
                )
            except SqlError as exc:
                # A query that does not bind, decompose or plan fails
                # here, its books settled, and nothing is cached.
                self._fail(record, trace, root, t0 + elapsed, str(exc))
                raise
            span = trace.begin("route", t_attempt)
            chosen = self.qcc.recommend_global(
                decomposed, plans, record.label, t_attempt
            )
            trace.end(
                span,
                t_attempt,
                servers=sorted(chosen.servers),
                estimated_total=chosen.total_cost,
                candidates=len(plans),
            )
            if retries == 0:
                # Only the first attempt pays the compile overhead;
                # retries recompile at the already advanced clock.
                yield Delay(self.compile_overhead_ms)
            t_dispatch = t0 + elapsed
            trace.end(compile_span, t_dispatch, plan_candidates=len(plans))

            # Execute every fragment at the dispatch instant to learn
            # its rows and raw service demand.
            slots: List[FragmentSlot] = []
            failure: Optional[ServerUnavailable] = None
            for choice in chosen.choices:
                # Siblings overlap in virtual time: never stack-nest them.
                frag_span = trace.begin_child(
                    root,
                    "dispatch",
                    t_dispatch,
                    fragment=choice.fragment.fragment_id,
                    server=choice.server,
                )
                siblings = chosen.siblings_of(choice)
                try:
                    option, execution = mw.execute_option(
                        choice, t_dispatch, siblings, trace=trace
                    )
                except ServerUnavailable as exc:
                    failure = last_error = exc
                    trace.end(
                        frag_span, t_dispatch, failed=True, reason=str(exc)
                    )
                    break
                slots.append(
                    FragmentSlot(choice, option, execution, frag_span, siblings)
                )

            if failure is not None:
                # The attempt is abandoned before any queueing, so the
                # fragments that did execute count at their raw demand;
                # QCC learns them, then the failure, in the order they
                # happened.
                for slot in slots:
                    mw.note_execution(slot.option, slot.execution, t_dispatch)
                    _end_dispatch(
                        trace,
                        slot,
                        slot.option,
                        slot.execution,
                        t_dispatch + slot.execution.observed_ms,
                    )
                mw.note_failure(failure.server, t_dispatch)
                excluded.add(failure.server)
                obs.metrics.counter("ii_query_retries_total").inc()
                trace.event(
                    "retry", t_dispatch, server=failure.server, attempt=retries
                )
                elapsed += self.failure_penalty_ms
                retries += 1
                t_attempt = t0 + elapsed
                yield Delay(self.failure_penalty_ms)
                continue

            settled = yield from strategy.dispatch(slots, t_dispatch, trace)
            fragments: Dict[str, FragmentRecord] = {}
            inputs: Dict[str, PhysicalPlan] = {}
            remote_ms = 0.0
            reroutes = 0
            for slot, (option, execution, learned, completion, tags) in zip(
                slots, settled
            ):
                mw.note_execution(option, learned, t_dispatch)
                _end_dispatch(
                    trace,
                    slot,
                    option,
                    execution,
                    completion.finished_ms,
                    queue_wait_ms=completion.wait_ms,
                    service_ms=completion.service_ms,
                    sojourn_ms=completion.sojourn_ms,
                    depth_at_arrival=completion.depth_at_arrival,
                    **tags,
                )
                fragment_id = option.fragment.fragment_id
                fragments[fragment_id] = FragmentRecord(
                    option.server,
                    option.plan_signature,
                    option.estimated.total,
                    option.calibrated.total,
                    execution.observed_ms,
                    execution.row_count,
                )
                inputs[fragment_id] = MaterializedInput(
                    fragment_id,
                    decomposed.fragment_for_binding(
                        option.fragment.bindings[0]
                    ).output_schema,
                    execution.rows,
                )
                remote_ms = max(remote_ms, execution.observed_ms)
                reroutes += "rerouted" in tags

            # II-side merge: computed locally, charged by the strategy.
            t_merge = t_dispatch + remote_ms
            merge_span = trace.begin_child(root, "merge", t_merge)
            merge_plan = build_merge_plan(decomposed, inputs)
            merge_result = execute_plan(merge_plan, self._merge_storage)
            # II runs unloaded: the merge costs its raw demand.
            meter = merge_result.meter
            merge_demand_ms = self.profile.cpu_ms(meter.cpu_ms) + (
                self.profile.io_ms(meter.io_ms)
            )
            merged = yield from strategy.merge(
                merge_demand_ms, t_merge, trace, merge_span
            )
            merge_ms = merged.sojourn_ms
            trace.end(
                merge_span,
                merged.finished_ms,
                estimated_total=chosen.merge_cost.total,
                observed_ms=merge_ms,
                rows=len(merge_result.rows),
                ii_load=0.0,
            )
            obs.metrics.histogram("ii_merge_ms").observe(merge_ms)
            obs.metrics.histogram("ii_remote_ms").observe(remote_ms)

            # merged.finished_ms - t0, up to float residue.
            response_ms = (t_dispatch - t0) + remote_ms + merge_ms
            self.qcc.record_ii_execution(
                estimated_total=(
                    max(c.calibrated.total for c in chosen.choices)
                    + chosen.merge_cost.total
                ),
                observed_ms=remote_ms + merge_ms,
                t_ms=t_dispatch,
            )
            result = FederatedResult(
                rows=merge_result.rows,
                schema=merge_result.schema,
                response_ms=response_ms,
                plan_id=chosen.plan_id,
                servers=chosen.servers,
                merge_cost=chosen.merge_cost.total,
                total_cost=chosen.total_cost,
                fragments=fragments,
                record=record,
                merge_ms=merge_ms,
                remote_ms=remote_ms,
                retries=retries,
                reroutes=reroutes,
            )
            self.patroller.complete(record, t0 + response_ms)
            obs.metrics.histogram("ii_response_ms").observe(response_ms)
            # The root span carries the latency ledger that
            # obs.flight.decompose_trace reads back.  It closes at the
            # merge's own finish instant: t0 + response_ms can sit one
            # ulp past it, leaving the merge span poking out of its parent.
            trace.end(
                root,
                merged.finished_ms,
                status="completed",
                pre_dispatch_ms=t_dispatch - t0,
                remote_ms=remote_ms,
                merge_ms=merge_ms,
                response_ms=response_ms,
                retries=retries,
            )
            obs.tracer.finish(trace, merged.finished_ms)
            if trace is not NULL_TRACE:
                result.trace = trace
            profiler = get_profiler()
            if profiler is not NULL_PROFILER:
                result.profile = profiler.capture()
            return result

        # ``retries`` has overshot by one on exit: it counts *attempts*
        # (initial try included), not retries.
        message = (
            f"query failed after {self.max_retries} retries"
            f" ({retries} attempts)"
            + (f": {last_error}" if last_error else "")
        )
        self._fail(record, trace, root, t0 + elapsed, message)
        raise FederationError(message)

    def _fail(
        self,
        record: PatrolRecord,
        trace: QueryTrace,
        root: Span,
        t_ms: float,
        message: str,
    ) -> None:
        self.patroller.fail(record, t_ms, message)
        obs = get_obs()
        obs.metrics.counter("ii_query_failures_total").inc()
        root.annotate(status="failed", reason=message)
        obs.tracer.finish(trace, t_ms, status="failed")

    # -- convenience -----------------------------------------------------

    def explain(self, sql: str) -> List[GlobalPlan]:
        """Compile-only entry point (explain mode)."""
        _, plans = self.compile(sql)
        return plans
