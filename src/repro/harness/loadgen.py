"""Open-loop load generation against the concurrent federation runtime.

:func:`run_loadgen` builds a federation, attaches a
:class:`~repro.fed.concurrent.ConcurrentRuntime` with an admission
controller, and fires a seeded open-loop arrival stream (Poisson or
bursty MMPP) of QT1–QT4 instances at it for a span of virtual time.
Everything — arrival gaps, workload mix, priority-class assignment — is
drawn from :func:`~repro.sim.rng.derive_rng` streams, so two runs with
the same parameters produce byte-identical verdict artifacts; CI diffs
them to prove it.

The result object knows how to summarise itself (per-class percentiles,
sustained throughput, shed accounting) and how to serialise one
canonical JSON verdict line per query for the ``repro loadgen --jsonl``
artifact and ``benchmarks/bench_load.py``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..fed import InformationIntegrator
from ..obs import decompose_trace
from ..fed.admission import (
    AdmissionDecision,
    DEFAULT_CLASSES,
    PriorityClass,
    make_arrivals,
    shed_violations,
)
from ..fed.concurrent import ConcurrentRuntime, QueryHandle
from ..sim.rng import derive_rng
from ..sqlengine import Database
from ..workload import TEST_SCALE, WorkloadScale
from ..workload.queries import QUERY_TYPES
from .deployment import build_federation
from .metrics import ResponseStats
from .report import ascii_table

#: Seed for table data and query-instance parameters (matches the chaos
#: harness: the dataset is shared, the traffic varies).
DATA_SEED = 7


def _pick_class(rng, classes: Sequence[PriorityClass]) -> str:
    """Weighted class choice from one rng draw (stable across runs)."""
    total = sum(spec.weight for spec in classes)
    if total <= 0:
        return classes[0].name
    x = rng.random() * total
    for spec in classes:
        x -= spec.weight
        if x <= 0:
            return spec.name
    return classes[-1].name


@dataclass
class LoadGenResult:
    """Everything one load-generation run produced."""

    arrival: str
    rate_qps: float
    duration_ms: float
    seed: int
    classes: Tuple[PriorityClass, ...]
    handles: List[QueryHandle]
    decisions: List[AdmissionDecision]
    #: Virtual instant the event loop drained.
    makespan_ms: float
    max_queue_depths: Dict[str, int] = field(default_factory=dict)
    #: Static hedge delay the run used (None = hedging off).
    hedge_after_ms: Optional[float] = None
    #: Hedge accounting: fired/suppressed/backup_wins/wasted_ms (empty
    #: when hedging is off).
    hedge_stats: Dict[str, float] = field(default_factory=dict)
    #: Re-routing batch size the run used (None = re-routing off).
    reroute_batch_rows: Optional[int] = None
    #: Re-route accounting: fired/declined/migrated_rows/wasted_ms
    #: (empty when re-routing is off).
    reroute_stats: Dict[str, object] = field(default_factory=dict)

    # -- accounting ------------------------------------------------------

    @property
    def offered(self) -> int:
        return len(self.handles)

    @property
    def completed(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.result is not None]

    @property
    def sheds(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.shed is not None]

    @property
    def failures(self) -> List[QueryHandle]:
        return [h for h in self.handles if h.error is not None]

    def sheds_by_class(self) -> Dict[str, int]:
        counts = {spec.name: 0 for spec in self.classes}
        for handle in self.sheds:
            counts[handle.klass] = counts.get(handle.klass, 0) + 1
        return counts

    def response_stats(
        self, klass: Optional[str] = None
    ) -> Optional[ResponseStats]:
        samples = [
            h.result.response_ms
            for h in self.completed
            if klass is None or h.klass == klass
        ]
        if not samples:
            return None
        return ResponseStats.from_samples(samples)

    @property
    def sustained_qps(self) -> float:
        """Completed queries per second of virtual time."""
        if self.makespan_ms <= 0:
            return 0.0
        return len(self.completed) / (self.makespan_ms / 1000.0)

    def shed_violations(self) -> List[str]:
        """Sheds issued while the class still had headroom (must be
        empty; same audit the chaos ``shed-only-over-budget`` checker
        runs)."""
        return shed_violations(self.decisions)

    def admission_summary(self) -> Dict[str, Dict[str, object]]:
        """Per-class admission decision evidence: how many queries were
        admitted vs. shed on which axis, plus the extremes of the
        evidence (token floor, predicted-sojourn ceiling) that justified
        the decisions."""
        per_class: Dict[str, Dict[str, object]] = {}
        for spec in self.classes:
            decisions = [d for d in self.decisions if d.klass == spec.name]
            per_class[spec.name] = {
                "decisions": len(decisions),
                "admitted": sum(1 for d in decisions if d.admitted),
                "shed_no_tokens": sum(
                    1 for d in decisions if d.reason == "no-tokens"
                ),
                "shed_over_budget": sum(
                    1 for d in decisions if d.reason == "budget-exhausted"
                ),
                "min_tokens_before": min(
                    (d.tokens_before for d in decisions), default=None
                ),
                "max_predicted_ms": max(
                    (d.predicted_ms for d in decisions), default=None
                ),
            }
        return per_class

    # -- serialisation ---------------------------------------------------

    def header_record(self) -> Dict[str, object]:
        header: Dict[str, object] = {
            "record": "loadgen-run",
            "arrival": {"process": self.arrival, "rate_qps": self.rate_qps},
            "duration_ms": self.duration_ms,
            "seed": self.seed,
            # A constant since processor sharing became the only queue
            # discipline; kept so the artifact's bytes do not move.
            "discipline": "ps",
            "classes": [
                {
                    "name": spec.name,
                    "rank": spec.rank,
                    "weight": spec.weight,
                    "budget_ms": (
                        None
                        if spec.budget_ms == float("inf")
                        else spec.budget_ms
                    ),
                    "rate_qps": (
                        None
                        if spec.rate_qps >= 1e12
                        else spec.rate_qps
                    ),
                    "burst": spec.burst,
                }
                for spec in self.classes
            ],
        }
        # Conditional keys: runs without hedging/re-routing keep their
        # pre-feature bytes.
        if self.hedge_after_ms is not None:
            header["hedge_after_ms"] = self.hedge_after_ms
        if self.reroute_batch_rows is not None:
            header["reroute_batch_rows"] = self.reroute_batch_rows
        return header

    def verdict_lines(self) -> List[str]:
        """One canonical JSON line per record: a run header (arrival
        spec included) followed by every query's verdict.  Pure function
        of the run parameters — CI byte-compares two invocations."""
        records: List[Dict[str, object]] = [self.header_record()]
        for handle in self.handles:
            entry: Dict[str, object] = {
                "record": "query",
                "index": handle.index,
                "t_ms": handle.submitted_ms,
                "class": handle.klass,
                "label": handle.label,
                "status": handle.status,
            }
            if handle.result is not None:
                entry["response_ms"] = handle.result.response_ms
                entry["rows"] = handle.result.row_count
                entry["retries"] = handle.result.retries
            elif handle.shed is not None:
                entry["reason"] = handle.shed.reason
                entry["predicted_ms"] = handle.shed.decision.predicted_ms
                entry["tokens_before"] = handle.shed.decision.tokens_before
            elif handle.error is not None:
                entry["error"] = str(handle.error)
            records.append(entry)
        return [
            json.dumps(record, sort_keys=True, separators=(",", ":"))
            for record in records
        ]

    def summary(self) -> Dict[str, object]:
        per_class: Dict[str, object] = {}
        for spec in self.classes:
            stats = self.response_stats(spec.name)
            per_class[spec.name] = {
                "offered": sum(
                    1 for h in self.handles if h.klass == spec.name
                ),
                "completed": sum(
                    1 for h in self.completed if h.klass == spec.name
                ),
                "shed": self.sheds_by_class().get(spec.name, 0),
                "p50_ms": stats.median if stats else None,
                "p95_ms": stats.p95 if stats else None,
                "p99_ms": stats.p99 if stats else None,
            }
        summary: Dict[str, object] = {
            "arrival": {"process": self.arrival, "rate_qps": self.rate_qps},
            "offered": self.offered,
            "completed": len(self.completed),
            "shed": len(self.sheds),
            "failed": len(self.failures),
            "makespan_ms": self.makespan_ms,
            "sustained_qps": self.sustained_qps,
            "per_class": per_class,
            "max_queue_depths": dict(sorted(self.max_queue_depths.items())),
            "shed_violations": self.shed_violations(),
            "admission": self.admission_summary(),
        }
        if self.hedge_after_ms is not None:
            summary["hedge_after_ms"] = self.hedge_after_ms
            summary["hedge"] = dict(self.hedge_stats)
        if self.reroute_batch_rows is not None:
            summary["reroute_batch_rows"] = self.reroute_batch_rows
            summary["reroute"] = dict(self.reroute_stats)
        return summary

    def render(self) -> str:
        lines = [
            f"arrival={self.arrival}@{self.rate_qps:g}qps "
            f"duration={self.duration_ms:g}ms discipline=ps "
            f"seed={self.seed}",
            f"offered={self.offered} completed={len(self.completed)} "
            f"shed={len(self.sheds)} failed={len(self.failures)} "
            f"sustained={self.sustained_qps:.1f}q/s "
            f"makespan={self.makespan_ms:.0f}ms",
        ]
        rows = []
        for spec in self.classes:
            stats = self.response_stats(spec.name)
            counts = self.sheds_by_class()
            rows.append(
                [
                    spec.name,
                    sum(1 for h in self.handles if h.klass == spec.name),
                    sum(1 for h in self.completed if h.klass == spec.name),
                    counts.get(spec.name, 0),
                    f"{stats.median:.1f}" if stats else "-",
                    f"{stats.p95:.1f}" if stats else "-",
                    f"{stats.p99:.1f}" if stats else "-",
                ]
            )
        lines.append(
            ascii_table(
                ["Class", "Offered", "Done", "Shed", "p50", "p95", "p99"],
                rows,
            )
        )
        depths = ", ".join(
            f"{name}={depth}"
            for name, depth in sorted(self.max_queue_depths.items())
        )
        lines.append(f"max queue depths: {depths}")
        if self.hedge_after_ms is not None:
            stats = self.hedge_stats
            lines.append(
                f"hedging: after={self.hedge_after_ms:g}ms "
                f"fired={stats.get('fired', 0):g} "
                f"backup_wins={stats.get('backup_wins', 0):g} "
                f"suppressed={stats.get('suppressed', 0):g} "
                f"wasted={stats.get('wasted_ms', 0.0):.1f}ms"
            )
        if self.reroute_batch_rows is not None:
            stats = self.reroute_stats
            lines.append(
                f"rerouting: batch={self.reroute_batch_rows} "
                f"fired={stats.get('fired', 0):g} "
                f"declined={stats.get('declined', 0):g} "
                f"migrated_rows={stats.get('migrated_rows', 0):g} "
                f"wasted={stats.get('wasted_ms', 0.0):.1f}ms"
            )
        admission_rows = []
        for name, info in self.admission_summary().items():
            min_tokens = info["min_tokens_before"]
            max_pred = info["max_predicted_ms"]
            admission_rows.append(
                [
                    name,
                    info["decisions"],
                    info["admitted"],
                    info["shed_no_tokens"],
                    info["shed_over_budget"],
                    f"{min_tokens:.2f}" if min_tokens is not None else "-",
                    f"{max_pred:.1f}" if max_pred is not None else "-",
                ]
            )
        lines.append("admission decisions:")
        lines.append(
            ascii_table(
                [
                    "Class", "Decided", "Admitted", "NoTokens",
                    "OverBudget", "MinTokens", "MaxPredicted",
                ],
                admission_rows,
            )
        )
        problems = self.shed_violations()
        lines.append(f"shed violations: {len(problems)}")
        if problems:
            lines.extend(f"  {p}" for p in problems)
        return "\n".join(lines)

    # -- flight recorder -------------------------------------------------

    def flight_record(self, slo_report=None) -> Dict[str, object]:
        """The machine-readable flight-recorder artifact: the run
        header, per-query latency decompositions + full span trees (when
        the run was traced), and the SLO verdicts when a
        :class:`~repro.obs.slo.SLOReport` is supplied."""
        queries: List[Dict[str, object]] = []
        for handle in self.handles:
            entry: Dict[str, object] = {
                "index": handle.index,
                "t_ms": handle.submitted_ms,
                "class": handle.klass,
                "label": handle.label,
                "status": handle.status,
            }
            if handle.result is not None:
                entry["response_ms"] = handle.result.response_ms
            if handle.trace is not None:
                entry["decomposition"] = decompose_trace(handle.trace)
                entry["trace"] = handle.trace.to_dict()
            queries.append(entry)
        record: Dict[str, object] = {
            "record": "flight-recorder",
            "run": self.header_record(),
            "summary": self.summary(),
            "queries": queries,
        }
        if slo_report is not None:
            record["slo"] = slo_report.to_dict()
        return record

    def flight_json(self, slo_report=None) -> str:
        """Canonical (byte-deterministic) JSON of the flight record."""
        return json.dumps(
            self.flight_record(slo_report),
            sort_keys=True,
            separators=(",", ":"),
        )


def run_loadgen(
    arrival: str = "poisson",
    rate_qps: float = 40.0,
    duration_ms: float = 4_000.0,
    classes: Sequence[PriorityClass] = DEFAULT_CLASSES,
    seed: int = 7,
    scale: WorkloadScale = TEST_SCALE,
    prebuilt_databases: Optional[Dict[str, Database]] = None,
    integrator: Optional[InformationIntegrator] = None,
    max_queries: Optional[int] = None,
    hedge_after_ms: Optional[float] = None,
    reroute_batch_rows: Optional[int] = None,
) -> LoadGenResult:
    """Fire one seeded open-loop arrival stream; returns the verdicts.

    ``max_queries`` caps the stream (whichever of the cap and
    ``duration_ms`` is hit first ends submission); ``integrator`` reuses
    an existing federation instead of building one — the benchmark
    passes prebuilt databases to skip the populate step.
    ``hedge_after_ms`` enables hedged fragment dispatch and
    ``reroute_batch_rows`` enables mid-query batch re-routing (both
    default to off and may be combined; the verdict artifact stays
    byte-identical to pre-feature runs when off).
    """
    if integrator is None:
        deployment = build_federation(
            scale=scale,
            seed=DATA_SEED,
            prebuilt_databases=prebuilt_databases,
        )
        integrator = deployment.integrator
    runtime = ConcurrentRuntime(
        integrator,
        classes=classes,
        hedge_after_ms=hedge_after_ms,
        reroute_batch_rows=reroute_batch_rows,
    )

    workload_rng = derive_rng(seed, "loadgen", "workload")
    gaps = make_arrivals(arrival, rate_qps, seed, "loadgen").gaps()
    t_arrive = runtime.scheduler.now
    while True:
        t_arrive += next(gaps)
        if t_arrive > duration_ms:
            break
        if max_queries is not None and len(runtime.handles) >= max_queries:
            break
        template = workload_rng.choice(QUERY_TYPES)
        instance = template.instance(
            workload_rng.randint(0, 9), DATA_SEED
        )
        runtime.submit_at(
            t_arrive,
            instance.sql,
            klass=_pick_class(workload_rng, classes),
            label=instance.label,
        )
    makespan = runtime.run()

    depths = {
        name: queue.max_depth for name, queue in runtime.queues.items()
    }
    depths[runtime.ii_queue.name] = runtime.ii_queue.max_depth
    hedge_stats: Dict[str, float] = {}
    if runtime.hedging is not None:
        hedge_stats = runtime.hedging.stats()
    reroute_stats: Dict[str, object] = {}
    if runtime.rerouting is not None:
        reroute_stats = runtime.rerouting.stats()
    return LoadGenResult(
        arrival=arrival,
        rate_qps=rate_qps,
        duration_ms=duration_ms,
        seed=seed,
        classes=tuple(classes),
        handles=list(runtime.handles),
        decisions=list(runtime.admission.decisions),
        makespan_ms=makespan,
        max_queue_depths=depths,
        hedge_after_ms=hedge_after_ms,
        hedge_stats=hedge_stats,
        reroute_batch_rows=reroute_batch_rows,
        reroute_stats=reroute_stats,
    )
