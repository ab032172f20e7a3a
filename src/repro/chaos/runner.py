"""Deterministic scenario execution (FoundationDB-style simulation runs).

:func:`run_scenario` materialises a :class:`~repro.chaos.scenario.ScenarioSpec`
into a live federation, applies its fault schedule, drives the workload
on the virtual clock and records everything the invariant checkers need:

* per-query outcomes (rows, response time, retries, servers, errors);
* every fragment dispatch, stamped with the set of servers the
  availability monitor considered down *at that instant* and, under a
  staleness tolerance, the set its attempt's compilation found fresh;
* every plan-cache hit, stamped with the entry's epoch and the live
  epoch counter;
* the calibration factors (server, fragment, initial, II) after a final
  fold, plus their configured clamp bounds.

It then reruns the same workload with the fault schedule stripped (the
*fault-free oracle*: any completed chaos query must produce exactly the
oracle's rows) and asks a SQLite copy of the dataset for the answer to
every SQL text the chaos run completed (:mod:`repro.chaos.sqlite_answers`:
an engine that is not this code).

Everything runs on virtual time with seeded randomness only, so a
scenario is byte-reproducible from its spec alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from ..core.calibrator import MAX_FACTOR, MIN_FACTOR
from ..fed import FederationError
from ..fed.admission import AdmissionDecision, PriorityClass
from ..fed.concurrent import ConcurrentRuntime
from ..fed.replication import ReplicaManager
from ..harness.deployment import (
    DEFAULT_SERVER_SPECS,
    REPLICA_PLACEMENT,
    REPLICA_SERVER_SPECS,
    Deployment,
    build_databases,
    build_federation,
    build_replica_federation,
)
from ..sim import (
    OutageSchedule,
    ServerUnavailable,
    StepSchedule,
    WindowedErrorInjector,
)
from ..sim.rng import derive_seed
from ..sqlengine import Database
from ..workload import TEST_SCALE
from .scenario import ScenarioSpec, fault_window_steps
from .sqlite_answers import SqliteAnswers

#: Seed for table data and query-instance parameters.  Deliberately
#: *not* the scenario seed: every scenario shares one dataset so the
#: expensive populate step happens once per topology, and fault
#: schedules — not data — are what varies across scenarios.
DATA_SEED = 7

#: Origins of the replica topology's nicknames: the S-servers of
#: build_replica_federation's S1/R1 and S2/R2 table groups.
REPLICA_ORIGINS: Dict[str, str] = {
    table: server
    for server in ("S1", "S2")
    for table in REPLICA_PLACEMENT[server]
}

#: Priority classes concurrent chaos scenarios run under.  ``gold`` is
#: never shed; ``bronze`` has a tight budget and a small token bucket so
#: overload actually exercises the shed path.  Names must match
#: ``repro.chaos.scenario.CHAOS_CLASS_NAMES``.
CHAOS_CLASSES = (
    PriorityClass("gold", rank=0, weight=0.5),
    PriorityClass(
        "bronze",
        rank=1,
        weight=0.5,
        budget_ms=2_000.0,
        rate_qps=40.0,
        burst=8.0,
    ),
)


@dataclass
class QueryOutcome:
    """What one submitted query did."""

    index: int
    query_type: str
    sql: str
    submitted_ms: float
    status: str  # "ok" | "failed" | "shed"
    rows: List[tuple] = field(default_factory=list)
    response_ms: Optional[float] = None
    retries: int = 0
    servers: Tuple[str, ...] = ()
    #: per-fragment observed response time (WorkMeter-derived)
    fragment_ms: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: Admission priority class (concurrent scenarios only).
    klass: str = ""
    #: Mid-query batch migrations this query performed (re-routing
    #: scenarios only; always 0 when the dimension is off).
    reroutes: int = 0

    @classmethod
    def completed(cls, result, **submission) -> "QueryOutcome":
        """An ``ok`` outcome carrying everything *result* measured."""
        return cls(
            status="ok",
            rows=list(result.rows),
            response_ms=result.response_ms,
            retries=result.retries,
            servers=tuple(sorted(result.servers)),
            fragment_ms={
                fragment_id: fragment.observed_ms
                for fragment_id, fragment in result.fragments.items()
            },
            reroutes=result.reroutes,
            **submission,
        )

    @classmethod
    def unanswered(cls, status: str, error, **submission) -> "QueryOutcome":
        """A ``failed`` or ``shed`` outcome and why."""
        return cls(status=status, error=str(error), **submission)


@dataclass(frozen=True)
class DispatchRecord:
    """One fragment dispatch and the monitor's down-set at that instant."""

    t_ms: float
    server: str
    down_before: Tuple[str, ...]
    #: Servers whose copies of the fragment's tables were within the
    #: scenario's staleness tolerance when the dispatching attempt
    #: compiled (None = the scenario has no tolerance).
    fresh: Optional[Tuple[str, ...]] = None


@dataclass(frozen=True)
class CacheLookupRecord:
    """One plan-cache hit: the entry's epoch vs the live counter."""

    t_ms: float
    entry_epoch: int
    epoch_at_lookup: int


@dataclass
class ScenarioRun:
    """Everything recorded about one executed scenario."""

    spec: ScenarioSpec
    outcomes: List[QueryOutcome]
    dispatches: List[DispatchRecord] = field(default_factory=list)
    cache_lookups: List[CacheLookupRecord] = field(default_factory=list)
    server_factors: Dict[str, float] = field(default_factory=dict)
    fragment_factors: Dict[Tuple[str, str], float] = field(
        default_factory=dict
    )
    initial_factors: Dict[str, float] = field(default_factory=dict)
    ii_factor: float = 1.0
    factor_bounds: Tuple[float, float] = (0.0, float("inf"))
    #: The fault-free rerun's outcomes (None when skipped).
    oracle: Optional[List[QueryOutcome]] = None
    #: SQLite's rows for the SQL text of every completed query.
    sqlite_answers: Dict[str, List[tuple]] = field(default_factory=dict)
    #: Every admit/shed verdict the primary pass's admission controller
    #: issued (concurrent scenarios; empty for sequential).
    admission_decisions: List[AdmissionDecision] = field(
        default_factory=list
    )
    #: How often the primary pass's armed second legs acted: hedges
    #: fired and won by the backup, migrations fired and declined by
    #: reason (concurrent scenarios; empty for sequential).
    second_legs: Dict[str, int] = field(default_factory=dict)

    def counts(self) -> Dict[str, int]:
        """``second_legs`` with the outcomes' retries and sheds."""
        retries = sum(o.retries for o in self.outcomes)
        return {**self.second_legs, "retries": retries, "sheds": self.shed}

    @property
    def completed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    @property
    def shed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "shed")


# -- database cache ----------------------------------------------------------

_TRIPLE_DATABASES: Optional[Dict[str, Database]] = None
_REPLICA_DATABASES: Optional[Dict[str, Database]] = None


def triple_databases() -> Dict[str, Database]:
    """Shared test-scale databases for the three-server topology."""
    global _TRIPLE_DATABASES
    if _TRIPLE_DATABASES is None:
        _TRIPLE_DATABASES = build_databases(
            DEFAULT_SERVER_SPECS, TEST_SCALE, seed=DATA_SEED
        )
    return _TRIPLE_DATABASES


def replica_databases() -> Dict[str, Database]:
    """Shared test-scale databases for the S1/R1/S2/R2 topology."""
    global _REPLICA_DATABASES
    if _REPLICA_DATABASES is None:
        _REPLICA_DATABASES = build_databases(
            REPLICA_SERVER_SPECS,
            TEST_SCALE,
            seed=DATA_SEED,
            placement=REPLICA_PLACEMENT,
        )
    return _REPLICA_DATABASES


#: id(databases) -> (databases, their SQLite copy).  Holding the mapping
#: keeps its id from being reused by another one.
_SQLITE_COPIES: Dict[int, Tuple[Mapping[str, Database], SqliteAnswers]] = {}


def sqlite_copy(databases: Mapping[str, Database]) -> SqliteAnswers:
    """The SQLite copy of *databases*' dataset, loaded on first use."""
    cached = _SQLITE_COPIES.get(id(databases))
    if cached is None:
        cached = _SQLITE_COPIES[id(databases)] = (
            databases,
            SqliteAnswers(databases.values()),
        )
    return cached[1]


# -- deployment assembly -----------------------------------------------------


def _build_deployment(
    spec: ScenarioSpec,
    with_faults: bool,
    databases: Dict[str, Database],
) -> Tuple[Deployment, Optional[ReplicaManager]]:
    replica = spec.topology == "replica"
    build = build_replica_federation if replica else build_federation
    deployment = build(
        scale=TEST_SCALE, seed=DATA_SEED, prebuilt_databases=databases
    )
    manager = None
    if replica:
        manager = ReplicaManager(
            deployment.registry, tolerance_ms=spec.staleness_tolerance_ms
        )
        for nickname, origin in REPLICA_ORIGINS.items():
            manager.set_origin(nickname, origin)
        deployment.integrator.replica_manager = manager

    if with_faults:
        _apply_schedule_faults(spec, deployment)
    return deployment, manager


def _apply_schedule_faults(spec: ScenarioSpec, deployment: Deployment) -> None:
    """Install outage/flaky/latency/storm schedules on the servers.

    Replica-lag events are imperative (origin writes) and are pumped by
    the submit loop instead.
    """
    by_server: Dict[str, Dict[str, list]] = {}
    for event in spec.faults:
        by_server.setdefault(event.server, {}).setdefault(
            event.kind, []
        ).append(event)

    for name, events in by_server.items():
        server = deployment.servers[name]
        outages = events.get("outage")
        if outages:
            server.availability = OutageSchedule(
                [(e.start_ms, e.end_ms) for e in outages]
            )
        flaky = events.get("flaky")
        if flaky:
            server.errors = WindowedErrorInjector(
                [(e.start_ms, e.end_ms, e.magnitude) for e in flaky],
                seed=derive_seed(spec.seed, "chaos", spec.index, "flaky"),
                name=name,
            )
        latency = events.get("latency")
        if latency:
            server.link.congestion = StepSchedule(
                fault_window_steps(latency)
            )
        storm = events.get("storm")
        if storm:
            # Load-level storms: the paper's "heavy update load" as a
            # contention schedule.  Chaos deliberately avoids real DML so
            # every server's data stays byte-identical and the fault-free
            # oracle comparison is exact.
            server.load = StepSchedule(fault_window_steps(storm))


# -- recorders ---------------------------------------------------------------


def _record_dispatches(
    deployment: Deployment,
    records: List[DispatchRecord],
    manager: Optional[ReplicaManager],
) -> None:
    """Wrap MW's dispatch path to log (server, monitor down-set,
    attempt's fresh set) triples."""
    meta_wrapper = deployment.meta_wrapper
    integrator = deployment.integrator
    qcc = deployment.qcc
    #: id(fragment) -> fresh set as of its latest compilation.  A cache
    #: hit re-reads the set at the hit instant: the entry's freshness
    #: horizon promises it has not moved since the entry was compiled.
    fresh_for: Dict[int, Tuple[str, ...]] = {}

    if manager is not None:
        compile_query = integrator.compile

        def compiling(sql, t_ms, *args, **kwargs):
            decomposed, plans = compile_query(sql, t_ms, *args, **kwargs)
            for fragment in decomposed.fragments:
                fresh = manager.fresh_servers(fragment.nicknames, t_ms)
                if fresh is not None:
                    fresh_for[id(fragment)] = tuple(sorted(fresh))
            return decomposed, plans

        integrator.compile = compiling

    original = meta_wrapper.execute_option

    def recording(option, t_ms, *args, **kwargs):
        down = tuple(qcc.availability.down_servers())
        fresh = fresh_for.get(id(option.fragment))
        try:
            used, execution = original(option, t_ms, *args, **kwargs)
        except ServerUnavailable as exc:
            records.append(DispatchRecord(t_ms, exc.server, down, fresh))
            raise
        records.append(DispatchRecord(t_ms, used.server, down, fresh))
        return used, execution

    meta_wrapper.execute_option = recording


def _record_cache_lookups(
    deployment: Deployment, records: List[CacheLookupRecord]
) -> None:
    """Wrap the plan cache to log the epoch every served hit carries."""
    cache = deployment.integrator.plan_cache
    if cache is None:
        return
    original = cache.get

    def recording(key, t_ms):
        entry = original(key, t_ms)
        if entry is not None:
            records.append(
                CacheLookupRecord(t_ms, entry.epoch, cache.epoch.value)
            )
        return entry

    cache.get = recording


# -- execution ---------------------------------------------------------------


def _drive_concurrent(
    spec: ScenarioSpec,
    integrator,
    manager: Optional[ReplicaManager],
    with_faults: bool,
    lag_events: List,
    run: Optional[ScenarioRun],
) -> List[QueryOutcome]:
    """Open-loop pass: overlap the workload on the event scheduler.

    Gap values are interarrival times (cumulative arrival instants), not
    think times; every query carries a priority class, and admission may
    shed it.  Replica-lag writes are scheduled at their event times —
    registered before the query processes so equal-time ties resolve
    write-before-submit, matching the sequential drive's ordering.
    """
    runtime = ConcurrentRuntime(
        integrator,
        classes=CHAOS_CLASSES,
        hedge_after_ms=spec.hedge_after_ms,
        reroute_batch_rows=spec.reroute_batch_rows,
    )
    if manager is not None and with_faults:
        for event in lag_events:
            runtime.scheduler.call_at(
                event.start_ms, manager.note_write, event.table,
                event.start_ms,
            )

    handles = []
    t_arrive = runtime.scheduler.now
    for query in spec.queries:
        t_arrive += query.gap_ms
        handles.append(
            runtime.submit_at(
                t_arrive,
                query.sql(DATA_SEED),
                klass=query.klass or CHAOS_CLASSES[0].name,
                label=query.query_type,
            )
        )
    runtime.run()

    if run is not None:
        run.admission_decisions = list(runtime.admission.decisions)
        if runtime.hedging is not None:
            hedges = runtime.hedging.stats()
            run.second_legs["hedges fired"] = int(hedges["fired"])
            run.second_legs["backup wins"] = int(hedges["backup_wins"])
        if runtime.rerouting is not None:
            run.second_legs["migrations fired"] = int(runtime.rerouting.stats()["fired"])
            for reason, count in sorted(runtime.rerouting.declined.items()):
                run.second_legs[f"migrations declined ({reason})"] = count

    outcomes: List[QueryOutcome] = []
    for index, (query, handle) in enumerate(zip(spec.queries, handles)):
        submission = dict(
            index=index,
            query_type=query.query_type,
            sql=handle.sql,
            submitted_ms=handle.submitted_ms,
            klass=handle.klass,
        )
        if handle.result is not None:
            outcome = QueryOutcome.completed(handle.result, **submission)
        elif handle.shed is not None:
            outcome = QueryOutcome.unanswered(
                "shed", handle.shed.reason, **submission
            )
        else:
            outcome = QueryOutcome.unanswered(
                "failed", handle.error, **submission
            )
        outcomes.append(outcome)
    return outcomes


def _execute(
    spec: ScenarioSpec,
    with_faults: bool,
    databases: Dict[str, Database],
    run: Optional[ScenarioRun] = None,
) -> List[QueryOutcome]:
    """One full pass over the spec's workload.

    When *run* is given, internal recorders and the final factor
    snapshot are attached to it (the primary pass); the oracle rerun
    only collects outcomes.
    """
    deployment, manager = _build_deployment(spec, with_faults, databases)
    if run is not None:
        _record_dispatches(deployment, run.dispatches, manager)
        _record_cache_lookups(deployment, run.cache_lookups)

    lag_events = sorted(
        (e for e in spec.faults if e.kind == "replica_lag"),
        key=lambda e: (e.start_ms, e.server, e.table),
    )
    applied = 0

    outcomes: List[QueryOutcome] = []
    clock = deployment.clock
    integrator = deployment.integrator
    if spec.arrival is not None:
        outcomes = _drive_concurrent(
            spec, integrator, manager, with_faults, lag_events, run
        )
    else:
        for index, query in enumerate(spec.queries):
            clock.advance(query.gap_ms)
            if manager is not None and with_faults:
                while (
                    applied < len(lag_events)
                    and lag_events[applied].start_ms <= clock.now
                ):
                    event = lag_events[applied]
                    manager.note_write(event.table, event.start_ms)
                    applied += 1
            sql = query.sql(DATA_SEED)
            submission = dict(
                index=index,
                query_type=query.query_type,
                sql=sql,
                submitted_ms=clock.now,
            )
            try:
                result = integrator.submit(sql, label=query.query_type)
            except (FederationError, ServerUnavailable) as exc:
                outcome = QueryOutcome.unanswered("failed", exc, **submission)
            else:
                outcome = QueryOutcome.completed(result, **submission)
            outcomes.append(outcome)

    if run is not None:
        qcc = deployment.qcc
        qcc.recalibrate(clock.now)
        calibrator = qcc.calibrator
        run.server_factors = calibrator.server_factors()
        run.fragment_factors = calibrator.fragment_factors()
        run.initial_factors = calibrator.initial_factors()
        run.ii_factor = qcc.ii_factor()
        run.factor_bounds = (MIN_FACTOR, MAX_FACTOR)
    return outcomes


def run_scenario(
    spec: ScenarioSpec,
    databases: Optional[Dict[str, Database]] = None,
    with_oracle: bool = True,
) -> ScenarioRun:
    """Execute *spec* and its verification twin; returns the record.

    ``databases`` overrides the shared per-topology dataset (tests pass
    session-scoped fixtures).  The fault-free oracle rerun can be
    disabled; SQLite answers every completed query's SQL text either way.
    """
    if databases is None:
        replica = spec.topology == "replica"
        databases = replica_databases() if replica else triple_databases()
    run = ScenarioRun(spec=spec, outcomes=[])
    run.outcomes = _execute(spec, with_faults=True, databases=databases, run=run)
    if with_oracle:
        run.oracle = _execute(
            spec.without_faults(), with_faults=False, databases=databases
        )
    sqlite = sqlite_copy(databases)
    run.sqlite_answers = {
        outcome.sql: sqlite.answer(outcome.sql)
        for outcome in run.outcomes
        if outcome.status == "ok"
    }
    return run


#: Type of the predicate the shrinker minimises against.
FailureProbe = Callable[[ScenarioSpec], Optional[str]]
