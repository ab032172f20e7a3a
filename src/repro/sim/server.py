"""A simulated remote data source: database + load + link + availability.

:class:`RemoteServer` is the unit the federation routes to.  Its
``explain`` answers are *load-blind* (statistics and hardware profile
only, like DB2's federated cost model) while its ``execute`` answers are
*load-aware* (metered work inflated by the current contention multipliers
plus network time) — the asymmetry whose gap the QCC measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

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


@dataclass
class RemoteExecution:
    """Outcome of running a query fragment (or DML) at a remote server."""

    rows: List[Row]
    schema: Optional[Schema]
    observed_ms: float
    processing_ms: float
    network_ms: float
    started_ms: float

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
