"""File wrapper: a non-relational source without cost estimation.

The paper (Section 1, compile-time step 3): "For those sub-queries that
are forwarded to a file wrapper, file paths are returned to II without
estimated cost."  This wrapper reproduces that contract:

* ``plans`` returns an executable plan but **withholds cost** — the
  returned estimate is a zero/unknown marker (``provides_cost`` is
  False); the meta-wrapper substitutes a default and QCC's daemon probes
  plus observed executions calibrate it over time.
* ``execute`` models fetching the *whole file* over the link and then
  evaluating the fragment at the integrator.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..sqlengine import (
    Database,
    PhysicalPlan,
    PlanCandidate,
    Schema,
)
from ..sim import NetworkLink, RemoteExecution
from .base import Wrapper

#: Marker estimate meaning "this wrapper does not cost queries".  An
#: explicit ``None`` sentinel: a zero-valued ``PlanCost`` is a legal
#: estimate for an empty table and must not be read as "unknown".
UNKNOWN_COST = None


class FileSource:
    """A flat file exposing one table's rows."""

    def __init__(
        self,
        name: str,
        table_name: str,
        schema: Schema,
        rows: Sequence[Sequence[Any]],
        link: Optional[NetworkLink] = None,
    ):
        self.name = name
        self.table_name = table_name
        self.link = link if link is not None else NetworkLink()
        # The wrapper evaluates fragments over a private embedded engine;
        # the *timing* model below is what makes this a remote file.
        self._database = Database(name=f"file:{name}")
        self._database.create_table(table_name, schema)
        self._database.load_rows(table_name, rows)
        width = self._database.catalog.lookup(table_name).schema.row_width_bytes()
        self.file_bytes = len(rows) * width

    @property
    def database(self) -> Database:
        return self._database


class FileWrapper(Wrapper):
    """Wrapper over a :class:`FileSource`."""

    source_type = "file"
    provides_cost = False

    def __init__(self, source: FileSource):
        self.source = source

    @property
    def server_name(self) -> str:
        return self.source.name

    def plans(self, fragment_sql: str, t_ms: float) -> List[PlanCandidate]:
        candidates = self.source.database.explain(fragment_sql)
        # Return the executable plan but withhold the cost: file wrappers
        # cannot estimate (the engine here is an implementation detail).
        return [
            PlanCandidate(plan=candidates[0].plan, cost=UNKNOWN_COST)
        ]

    def execute(self, plan: PhysicalPlan, t_ms: float) -> RemoteExecution:
        result = self.source.database.run_plan(plan)
        # The whole file crosses the wire, then II evaluates the fragment.
        network_ms = self.source.link.round_trip_ms(t_ms) + (
            self.source.link.transfer_ms(self.source.file_bytes, t_ms)
        )
        processing_ms = result.meter.total_ms
        return RemoteExecution(
            rows=result.rows,
            schema=result.schema,
            observed_ms=network_ms + processing_ms,
            processing_ms=processing_ms,
            network_ms=network_ms,
            started_ms=t_ms,
        )

    def ping(self, t_ms: float) -> float:
        return self.source.link.round_trip_ms(t_ms)
