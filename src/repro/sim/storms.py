"""Update-storm generation: the evaluation's "heavy update load".

Section 5.1 step 4: "Servers are hit with a heavy update load, and the
query fragments obtained in the first step are re-forwarded to the
available servers."  The driver synthesises UPDATE statements against a
server's tables and executes them through the server's normal DML path,
so the load is *real work*: it is metered, inflated by current
contention, and — with an induced-load schedule — raises the server's
load level for concurrent queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from ..sqlengine import ColumnType, TableDef
from .rng import derive_rng
from .server import RemoteExecution, RemoteServer


@dataclass
class StormReport:
    """What one storm burst did."""

    statements: int
    total_observed_ms: float
    executions: List[RemoteExecution] = field(default_factory=list)


class UpdateStormDriver:
    """Synthesises and executes update bursts against one server."""

    def __init__(self, server: RemoteServer, seed: int = 7):
        """The storm hits the server's largest table: that is where
        update storms hurt."""
        self.server = server
        catalog = server.database.catalog
        names = catalog.table_names()
        if not names:
            raise ValueError(f"server {server.name} has no tables")
        table = max(names, key=lambda n: catalog.lookup(n).stats.row_count)
        self._catalog = catalog
        self._table_name = table
        self._rng = derive_rng(seed, "storm", server.name, table)
        self._numeric_columns = [
            c
            for c in self.table.schema.columns
            if c.ctype in (ColumnType.INT, ColumnType.FLOAT)
        ]
        if not self._numeric_columns:
            raise ValueError(
                f"table {table!r} has no numeric column to update"
            )

    @property
    def table(self) -> TableDef:
        """The target's current definition: an ``analyze`` registers a
        new one, and the statements follow the statistics it brings."""
        return self._catalog.lookup(self._table_name)

    def _statement(self) -> str:
        """One random single-column range update."""
        target = self._rng.choice(self._numeric_columns)
        key = self._numeric_columns[0]
        stats = self.table.stats.for_column(key.name)
        low, high = 0, max(self.table.stats.row_count, 1)
        if stats is not None and stats.value_range():
            low = stats.min_value
            high = stats.max_value
        span = max(1, int((high - low) / 10)) if isinstance(low, int) else 1
        start = self._rng.randint(int(low), max(int(low), int(high) - span))
        return (
            f"UPDATE {self.table.name} "
            f"SET {target.name} = {target.name} + 1 "
            f"WHERE {key.name} >= {start} AND {key.name} < {start + span}"
        )

    def burst(self, t_ms: float, statements: int = 5) -> StormReport:
        """Fire a burst of update statements at virtual time *t_ms*."""
        executions: List[RemoteExecution] = []
        total = 0.0
        for _ in range(statements):
            execution = self.server.execute_dml(self._statement(), t_ms)
            executions.append(execution)
            total += execution.observed_ms
        return StormReport(
            statements=statements,
            total_observed_ms=total,
            executions=executions,
        )

    def sustained(
        self, start_ms: float, duration_ms: float, statements_per_burst: int = 5,
        burst_interval_ms: float = 250.0,
    ) -> List[StormReport]:
        """Repeated bursts across [start, start+duration)."""
        reports = []
        t = start_ms
        while t < start_ms + duration_ms:
            reports.append(self.burst(t, statements_per_burst))
            t += burst_interval_ms
        return reports
