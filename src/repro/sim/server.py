"""A simulated remote data source: database + load + link + availability.

:class:`RemoteServer` is the unit the federation routes to.  Its
``explain`` answers are *load-blind* (statistics and hardware profile
only, like DB2's federated cost model) while its ``execute`` answers are
*load-aware* (metered work inflated by the current contention multipliers
plus network time) — the asymmetry whose gap the QCC measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, nextafter, ulp
from typing import List, Optional, Tuple

from ..numeric import left_sum
from ..sqlengine import (
    Database,
    PhysicalPlan,
    PlanCandidate,
    Row,
    Schema,
    ServerProfile,
)
from .failures import AlwaysUp, AvailabilitySchedule, ErrorInjector, ServerUnavailable
from .load import ConstantLoad, ContentionProfile, LoadSchedule
from .network import NetworkLink

#: Bytes assumed for a fragment-request message (SQL text + descriptor).
REQUEST_BYTES = 512.0


def exact_split(total: float, weights: List[float]) -> List[float]:
    """Split *total* proportionally to *weights*, summing back exactly.

    The last share absorbs the floating-point residue, and a final
    one-ulp correction forces the left-to-right sum of the shares
    (:func:`repro.numeric.left_sum`) to reproduce *total* bit-for-bit —
    the invariant re-routing's demand splits are tested against.  When
    no nudge of the last share gets there (the exact sum lands on a
    rounding tie either way), :func:`_grid_split` supplies the shares.
    Weights must be non-negative with a positive sum (an all-zero weight
    vector puts everything in the last share).
    """
    if not weights:
        return []
    if len(weights) == 1:
        return [total]
    denom = 0.0
    for w in weights:
        denom += w
    shares: List[float] = []
    acc = 0.0
    for w in weights[:-1]:
        share = total * (w / denom) if denom > 0.0 else 0.0
        shares.append(share)
        acc += share
    shares.append(total - acc)
    # Round-to-nearest can leave the recomposed sum one ulp off *total*;
    # nudge the residual share until the identity holds exactly.
    for _ in range(4):
        recomposed = left_sum(shares)
        if recomposed == total:
            return shares
        shares[-1] = nextafter(
            shares[-1], shares[-1] + (total - recomposed)
        )
    if left_sum(shares) == total or not isfinite(total):
        return shares
    return _grid_split(total, weights)


def _grid_split(total: float, weights: List[float]) -> List[float]:
    """Shares of *total* that are whole multiples of ``ulp(total)``.

    Every partial sum of such shares is exactly representable, so they
    add back to *total* in any order and on any interpreter.
    """
    unit = ulp(total)
    units = int(total / unit)
    exact = [Fraction(w) for w in weights]
    denom = sum(exact, Fraction(0))
    shares: List[float] = []
    given = 0
    for w in exact[:-1]:
        part = int(units * w / denom) if denom > 0 else 0
        shares.append(part * unit)
        given += part
    shares.append((units - given) * unit)
    return shares


def transfer_spans(row_count: int, batch_rows: int) -> List[Tuple[int, int]]:
    """Row spans ``[start, stop)`` chunking *row_count* by *batch_rows*.

    Always yields at least one span so an empty result still has one
    (empty) checkpoint span — a response message crosses the link
    either way.
    """
    if row_count <= 0:
        return [(0, 0)]
    step = max(1, batch_rows)
    return [
        (start, min(start + step, row_count))
        for start in range(0, row_count, step)
    ]


@dataclass
class RemoteExecution:
    """Outcome of running a query fragment (or DML) at a remote server."""

    rows: List[Row]
    schema: Optional[Schema]
    observed_ms: float
    processing_ms: float
    network_ms: float
    started_ms: float
    #: Which execution engine produced the rows (None for DML).
    engine: Optional[str] = None

    @property
    def finished_ms(self) -> float:
        return self.started_ms + self.observed_ms

    @property
    def row_count(self) -> int:
        return len(self.rows)


class RemoteServer:
    """One autonomous remote data source."""

    def __init__(
        self,
        name: str,
        database: Database,
        contention: ContentionProfile = ContentionProfile(),
        load: LoadSchedule = ConstantLoad(),
        link: Optional[NetworkLink] = None,
        availability: AvailabilitySchedule = AlwaysUp(),
        errors: Optional[ErrorInjector] = None,
    ):
        self.name = name
        self.database = database
        self.contention = contention
        self.load = load
        self.link = link if link is not None else NetworkLink()
        self.availability = availability
        self.errors = errors or ErrorInjector()

    @property
    def profile(self) -> ServerProfile:
        return self.database.profile

    # -- liveness --------------------------------------------------------

    def is_up(self, t_ms: float) -> bool:
        return self.availability.is_up(t_ms)

    def ping(self, t_ms: float) -> float:
        """Round-trip a probe; raises :class:`ServerUnavailable` if down.

        Returns the probe's response time — the daemon programs use this
        to derive initial calibration factors from network latency.
        """
        if not self.is_up(t_ms):
            raise ServerUnavailable(self.name, t_ms)
        return self.link.round_trip_ms(t_ms)

    def probe_query(self, t_ms: float) -> Tuple[float, float]:
        """Run a canned calibration query; returns (estimated, observed).

        QCC's daemons "explore the network latency and processing latency
        at remote sources": a trivial aggregate over the largest table
        yields a fresh observed/estimated ratio that reflects the
        server's *current* load and link state without touching any
        user data path.
        """
        if not self.is_up(t_ms):
            raise ServerUnavailable(self.name, t_ms)
        table_names = self.database.catalog.table_names()
        if not table_names:
            return 1.0, self.link.round_trip_ms(t_ms)
        # Probe against the *largest* table: a ratio measured on a tiny
        # query is swamped by fixed network latency, while a scan-sized
        # probe approximates the inflation a real fragment would see.
        largest = max(
            table_names,
            key=lambda n: self.database.catalog.lookup(n).stats.row_count,
        )
        sql = f"SELECT COUNT(*) FROM {largest}"
        best = self.database.explain(sql)[0]
        execution = self.execute_plan(best.plan, t_ms)
        return best.cost.total, execution.observed_ms

    # -- compile time ------------------------------------------------------

    def explain(self, sql: str, t_ms: float = 0.0) -> List[PlanCandidate]:
        """Plan alternatives with load-blind estimated costs.

        Explain requests go over the network too, so they fail when the
        server is down — which is how the federation first notices an
        outage at compile time.
        """
        if not self.is_up(t_ms):
            raise ServerUnavailable(self.name, t_ms)
        return self.database.explain(sql)

    # -- run time ------------------------------------------------------------

    def _processing_ms(self, meter, t_ms: float) -> float:
        """Metered work inflated by the load level at *t_ms* — and fed
        back into it: work dispatched here raises the server's load for
        subsequent requests (InducedLoad schedules)."""
        processing_ms = self.contention.demand_ms(
            self.profile, meter, self.load.level(t_ms)
        )
        self.load.note_work(t_ms, processing_ms)
        return processing_ms

    def execute_plan(self, plan: PhysicalPlan, t_ms: float) -> RemoteExecution:
        """Execute *plan* and compute the observed response time."""
        if not self.is_up(t_ms):
            raise ServerUnavailable(self.name, t_ms)
        if self.errors.should_fail(t_ms):
            raise ServerUnavailable(self.name, t_ms, transient=True)
        result = self.database.run_plan(plan)
        processing_ms = self._processing_ms(result.meter, t_ms)
        # Wire bytes: result rows x the output schema's row width.
        result_bytes = result.row_count * plan.output_schema.row_width_bytes()
        network_ms = self.link.request_response_ms(
            REQUEST_BYTES, result_bytes, t_ms
        )
        return RemoteExecution(
            rows=result.rows,
            schema=result.schema,
            observed_ms=processing_ms + network_ms,
            processing_ms=processing_ms,
            network_ms=network_ms,
            started_ms=t_ms,
            engine=result.engine,
        )

    def execute_dml(self, sql: str, t_ms: float) -> RemoteExecution:
        """Execute an INSERT/UPDATE/DELETE at this server.

        Write work is metered, inflated by the current load level and —
        when the server runs an induced-load schedule — heats the server
        for subsequent requests.  This is how the evaluation's "heavy
        update load" (Section 5.1 step 4) is generated: as real work,
        not a knob.
        """
        if not self.is_up(t_ms):
            raise ServerUnavailable(self.name, t_ms)
        if self.errors.should_fail(t_ms):
            raise ServerUnavailable(self.name, t_ms, transient=True)
        result = self.database.run_dml(sql)
        processing_ms = self._processing_ms(result.meter, t_ms)
        network_ms = self.link.request_response_ms(REQUEST_BYTES, 64.0, t_ms)
        return RemoteExecution(
            rows=[],
            schema=None,
            observed_ms=processing_ms + network_ms,
            processing_ms=processing_ms,
            network_ms=network_ms,
            started_ms=t_ms,
        )

    def current_load(self, t_ms: float) -> float:
        return self.load.level(t_ms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteServer {self.name}>"
