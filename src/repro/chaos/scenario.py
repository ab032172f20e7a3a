"""Seed-driven chaos scenarios: topology + workload mix + fault schedule.

A :class:`ScenarioSpec` is a *complete, serialisable description* of one
chaos run: which federation topology to build, which QT1–QT5 query
instances to submit (and how far apart in virtual time), and a schedule
of fault events — outages, flaky-error windows, latency spikes, update
storms and replica lag.  Everything is sampled from
:func:`~repro.sim.rng.derive_rng` streams keyed on ``(seed, "chaos",
index, component)``, so:

* the same ``(seed, index)`` always produces byte-identical specs, in
  any process, on any platform (no salted hashing, no wall clock);
* adding a new fault kind or sampling step never perturbs the streams
  of existing components.

Specs round-trip through JSON (``to_dict``/``from_dict``), which is what
makes the shrinker's one-line ``repro chaos --repro '<spec>'`` command
possible: a CI failure is reproduced from the artifact line alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..sim.rng import derive_rng
from ..workload.queries import EXTENDED_QUERY_TYPES, template_by_name

#: Servers per topology.  ``triple`` is the paper's three-server Section
#: 5 deployment (full replication — every query is a single fragment
#: with three candidates); ``replica`` is the Section 4 S1/R1/S2/R2
#: load-distribution deployment (cross-group joins split into two
#: fragments with two candidates each).
TOPOLOGY_SERVERS: Dict[str, Tuple[str, ...]] = {
    "triple": ("S1", "S2", "S3"),
    "replica": ("S1", "R1", "S2", "R2"),
}

#: Nicknames whose origin writes can make replicas lag, per topology.
#: Only the replica topology tracks currency (the triple deployment has
#: no ReplicaManager attached).
REPLICA_LAG_NICKNAMES: Dict[str, Tuple[str, ...]] = {
    "triple": (),
    "replica": ("orders", "customer", "lineitem", "product", "supplier"),
}

FAULT_KINDS = ("outage", "flaky", "latency", "storm", "replica_lag")

QUERY_TYPE_NAMES: Tuple[str, ...] = tuple(
    template.name for template in EXTENDED_QUERY_TYPES
)

#: Virtual-time horizon (ms) fault windows are sampled within.  Matched
#: to the span a handful of test-scale queries actually covers, so
#: faults overlap query execution instead of landing in dead time.
HORIZON_MS = 4_000.0


@dataclass(frozen=True)
class QuerySpec:
    """One workload step: advance the clock, then submit one instance.

    Under a sequential scenario ``gap_ms`` is the closed-loop think time
    before submission; under a concurrent scenario (``arrival`` set on
    the spec) it is the open-loop interarrival gap, and ``klass`` names
    the query's admission priority class.
    """

    query_type: str
    instance_id: int
    #: Virtual-time gap before this query is submitted.
    gap_ms: float
    #: Admission priority class ("" = scenario is sequential).
    klass: str = ""

    def sql(self, seed: int = 7) -> str:
        return template_by_name(self.query_type).instance(
            self.instance_id, seed
        ).sql

    def to_dict(self) -> Dict[str, object]:
        return {
            "query_type": self.query_type,
            "instance_id": self.instance_id,
            "gap_ms": self.gap_ms,
            "klass": self.klass,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "QuerySpec":
        return cls(
            query_type=str(data["query_type"]),
            instance_id=int(data["instance_id"]),
            gap_ms=float(data["gap_ms"]),
            klass=str(data.get("klass", "")),
        )


#: Arrival processes a concurrent scenario may sample.
ARRIVAL_PROCESSES = ("poisson", "bursty")

#: Priority classes concurrent chaos queries are drawn from (must match
#: ``repro.chaos.runner.CHAOS_CLASSES``).
CHAOS_CLASS_NAMES = ("gold", "bronze")


@dataclass(frozen=True)
class ArrivalSpec:
    """Open-loop arrival process of a concurrent scenario.

    ``None`` on a :class:`ScenarioSpec` means the legacy closed-loop
    sequential drive (one query at a time, think-time gaps).
    """

    process: str  # "poisson" | "bursty"
    rate_qps: float

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}")
        if self.rate_qps <= 0:
            raise ValueError(f"non-positive arrival rate {self.rate_qps}")

    def describe(self) -> str:
        return f"{self.process}@{self.rate_qps:g}qps"

    def to_dict(self) -> Dict[str, object]:
        return {"process": self.process, "rate_qps": self.rate_qps}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ArrivalSpec":
        return cls(
            process=str(data["process"]),
            rate_qps=float(data["rate_qps"]),
        )


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``magnitude`` is kind-specific: the error rate for ``flaky``, the
    congestion level for ``latency``, the load level for ``storm``;
    unused for ``outage`` and ``replica_lag``.  ``table`` names the
    nickname a ``replica_lag`` write targets.
    """

    kind: str
    server: str
    start_ms: float
    end_ms: float
    magnitude: float = 0.0
    table: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.end_ms < self.start_ms:
            raise ValueError(
                f"fault window end {self.end_ms} before start {self.start_ms}"
            )

    def describe(self) -> str:
        detail = ""
        if self.kind == "flaky":
            detail = f" rate={self.magnitude:g}"
        elif self.kind in ("latency", "storm"):
            detail = f" level={self.magnitude:g}"
        elif self.kind == "replica_lag":
            detail = f" table={self.table}"
        return (
            f"{self.kind}@{self.server}"
            f"[{self.start_ms:g},{self.end_ms:g}){detail}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "server": self.server,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "magnitude": self.magnitude,
            "table": self.table,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        return cls(
            kind=str(data["kind"]),
            server=str(data["server"]),
            start_ms=float(data["start_ms"]),
            end_ms=float(data["end_ms"]),
            magnitude=float(data.get("magnitude", 0.0)),
            table=str(data.get("table", "")),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, reproducible chaos scenario."""

    seed: int
    index: int
    topology: str
    queries: Tuple[QuerySpec, ...]
    faults: Tuple[FaultEvent, ...] = field(default_factory=tuple)
    #: Replica-currency tolerance queries are submitted with (replica
    #: topology only); None = no currency filtering.
    staleness_tolerance_ms: Optional[float] = None
    #: Open-loop arrival process; None = sequential closed-loop drive.
    arrival: Optional[ArrivalSpec] = None
    #: Static hedge delay for concurrent scenarios (``repro chaos
    #: --hedge-after``); None = hedging off.  Never sampled by the
    #: generator, so default sweeps keep their exact bytes.
    hedge_after_ms: Optional[float] = None
    #: Mid-query re-routing checkpoint granularity for concurrent
    #: scenarios (``repro chaos --reroute-batch`` / ``--reroute-rate``);
    #: None = re-routing off.  Sampled only when the generator's
    #: ``reroute_rate`` is raised above its 0.0 default, on its own RNG
    #: stream, so default sweeps keep their exact bytes.
    reroute_batch_rows: Optional[int] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGY_SERVERS:
            raise ValueError(f"unknown topology {self.topology!r}")
        servers = TOPOLOGY_SERVERS[self.topology]
        for fault in self.faults:
            if fault.server not in servers:
                raise ValueError(
                    f"fault {fault.describe()} targets {fault.server!r}, "
                    f"not in topology {self.topology!r}"
                )

    @property
    def servers(self) -> Tuple[str, ...]:
        return TOPOLOGY_SERVERS[self.topology]

    def without_faults(self) -> "ScenarioSpec":
        """The fault-free oracle twin of this scenario."""
        return replace(self, faults=())

    def describe(self) -> str:
        mix = ",".join(
            f"{q.query_type}#{q.instance_id}" for q in self.queries
        )
        faults = "; ".join(f.describe() for f in self.faults) or "none"
        arrival = (
            self.arrival.describe() if self.arrival is not None
            else "sequential"
        )
        return (
            f"scenario seed={self.seed} index={self.index} "
            f"topology={self.topology} arrival={arrival} "
            f"queries=[{mix}] faults=[{faults}]"
        )

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "seed": self.seed,
            "index": self.index,
            "topology": self.topology,
            "queries": [q.to_dict() for q in self.queries],
            "faults": [f.to_dict() for f in self.faults],
            "staleness_tolerance_ms": self.staleness_tolerance_ms,
            "arrival": (
                None if self.arrival is None else self.arrival.to_dict()
            ),
        }
        # Conditional keys: default (non-hedged, non-rerouting) specs
        # keep the exact canonical bytes they had before these features
        # existed.
        if self.hedge_after_ms is not None:
            data["hedge_after_ms"] = self.hedge_after_ms
        if self.reroute_batch_rows is not None:
            data["reroute_batch_rows"] = self.reroute_batch_rows
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ScenarioSpec":
        tolerance = data.get("staleness_tolerance_ms")
        arrival = data.get("arrival")
        hedge = data.get("hedge_after_ms")
        reroute = data.get("reroute_batch_rows")
        return cls(
            hedge_after_ms=None if hedge is None else float(hedge),
            reroute_batch_rows=None if reroute is None else int(reroute),
            seed=int(data["seed"]),
            index=int(data["index"]),
            topology=str(data["topology"]),
            queries=tuple(
                QuerySpec.from_dict(q) for q in data.get("queries", ())
            ),
            faults=tuple(
                FaultEvent.from_dict(f) for f in data.get("faults", ())
            ),
            staleness_tolerance_ms=(
                None if tolerance is None else float(tolerance)
            ),
            arrival=(
                None if arrival is None else ArrivalSpec.from_dict(arrival)
            ),
        )

    def canonical_json(self) -> str:
        """A stable, key-sorted JSON encoding (determinism comparisons,
        repro commands, JSONL artifacts)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    @classmethod
    def from_json(cls, payload: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(payload))


# -- generation --------------------------------------------------------------


def _sample_fault(rng, topology: str) -> FaultEvent:
    servers = TOPOLOGY_SERVERS[topology]
    kinds: List[str] = ["outage", "flaky", "latency", "storm"]
    if REPLICA_LAG_NICKNAMES[topology]:
        kinds.append("replica_lag")
    kind = rng.choice(kinds)
    server = rng.choice(servers)
    start = round(rng.uniform(0.0, HORIZON_MS * 0.8), 1)
    duration = round(rng.uniform(150.0, HORIZON_MS * 0.4), 1)
    end = start + duration
    if kind == "outage":
        return FaultEvent(kind, server, start, end)
    if kind == "flaky":
        rate = rng.choice((0.2, 0.4, 0.6, 0.8))
        return FaultEvent(kind, server, start, end, magnitude=rate)
    if kind == "latency":
        level = round(rng.uniform(0.3, 0.9), 2)
        return FaultEvent(kind, server, start, end, magnitude=level)
    if kind == "storm":
        level = round(rng.uniform(0.3, 0.9), 2)
        return FaultEvent(kind, server, start, end, magnitude=level)
    # replica_lag: an origin write at `start` makes that nickname's
    # replicas stale; the window end is irrelevant.
    nickname = rng.choice(REPLICA_LAG_NICKNAMES[topology])
    return FaultEvent(kind, server, start, start, table=nickname)


#: Checkpoint granularities the reroute dimension samples from (small
#: enough that TEST_SCALE fragment results span several batches).
REROUTE_BATCH_CHOICES = (4, 16, 64)


def generate_scenario(
    seed: int, index: int, reroute_rate: float = 0.0
) -> ScenarioSpec:
    """Sample one scenario; pure function of ``(seed, index)``.

    ``reroute_rate`` is the probability a *concurrent* scenario enables
    mid-query re-routing.  It defaults to 0.0 and the reroute stream is
    only touched when the rate is positive, so default sweeps are
    byte-identical to pre-rerouting artifacts; ``repro chaos
    --reroute-rate`` opts a sweep in.
    """
    shape_rng = derive_rng(seed, "chaos", index, "shape")
    topology = shape_rng.choice(("triple", "triple", "replica"))

    workload_rng = derive_rng(seed, "chaos", index, "workload")
    query_count = workload_rng.randint(4, 8)
    queries = tuple(
        QuerySpec(
            query_type=workload_rng.choice(QUERY_TYPE_NAMES),
            instance_id=workload_rng.randint(0, 9),
            gap_ms=round(workload_rng.uniform(20.0, 200.0), 1),
        )
        for _ in range(query_count)
    )

    fault_rng = derive_rng(seed, "chaos", index, "faults")
    fault_count = fault_rng.randint(1, 6)
    faults = tuple(
        _sample_fault(fault_rng, topology)
        for _ in range(fault_count)
    )

    tolerance: Optional[float] = None
    if topology == "replica":
        tolerance_rng = derive_rng(seed, "chaos", index, "tolerance")
        tolerance = tolerance_rng.choice((None, 500.0, 2_000.0))

    # Concurrency dimension: a separate stream (existing components keep
    # their bytes) decides whether this scenario drives queries open-loop
    # through the event scheduler.  Concurrent scenarios resample gaps
    # from the arrival process and tag each query with a priority class.
    arrival: Optional[ArrivalSpec] = None
    arrival_rng = derive_rng(seed, "chaos", index, "arrival")
    if arrival_rng.random() < 0.4:
        process = arrival_rng.choice(ARRIVAL_PROCESSES)
        rate_qps = arrival_rng.choice((20.0, 40.0, 80.0))
        arrival = ArrivalSpec(process=process, rate_qps=rate_qps)
        queries = tuple(
            replace(
                query,
                gap_ms=round(
                    arrival_rng.expovariate(rate_qps / 1000.0), 2
                ),
                klass=arrival_rng.choice(CHAOS_CLASS_NAMES),
            )
            for query in queries
        )

    # Re-routing dimension: only concurrent scenarios can migrate (the
    # sequential drive has no scheduler to interrupt), and the stream is
    # touched only when the sweep opts in, so existing components — and
    # whole default sweeps — keep their exact bytes.
    reroute_batch_rows: Optional[int] = None
    if reroute_rate > 0.0 and arrival is not None:
        reroute_rng = derive_rng(seed, "chaos", index, "reroute")
        if reroute_rng.random() < reroute_rate:
            reroute_batch_rows = reroute_rng.choice(REROUTE_BATCH_CHOICES)

    return ScenarioSpec(
        seed=seed,
        index=index,
        topology=topology,
        queries=queries,
        faults=faults,
        staleness_tolerance_ms=tolerance,
        arrival=arrival,
        reroute_batch_rows=reroute_batch_rows,
    )


def generate_scenarios(
    seed: int, count: int, reroute_rate: float = 0.0
) -> List[ScenarioSpec]:
    return [generate_scenario(seed, i, reroute_rate) for i in range(count)]


def fault_window_steps(
    events: Sequence[FaultEvent],
) -> List[Tuple[float, float]]:
    """Piecewise-constant (start, level) steps for latency/storm events.

    Overlapping windows take the maximum level; outside every window the
    level is 0.  The result feeds :class:`~repro.sim.load.StepSchedule`.
    """
    boundaries = sorted(
        {event.start_ms for event in events}
        | {event.end_ms for event in events}
    )
    steps: List[Tuple[float, float]] = []
    for boundary in boundaries:
        level = max(
            (
                event.magnitude
                for event in events
                if event.start_ms <= boundary < event.end_ms
            ),
            default=0.0,
        )
        if not steps or steps[-1][1] != level:
            steps.append((boundary, level))
    return steps
