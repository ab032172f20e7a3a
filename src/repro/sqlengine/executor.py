"""Plan execution entry points.

Two engines run the same physical plan:

* ``"columnar"`` (default) — the production engine: batch-at-a-time via
  ``rows_columnar()`` over column batches with selection vectors
  (late materialisation at the output boundary);
* ``"row"`` — the reference engine: tuple-at-a-time iterators, the small
  independent implementation the differential tests hold the columnar
  engine's rows and meters to (every plan of a chaos sweep included).

Both produce identical rows *and* identical ``WorkMeter`` totals (see
docs/execution.md).  A database fixes its engine when it is built
(``Database(engine=)``) and ``execute_plan(engine=)`` runs one plan on
either; the federation's II merge always runs the default.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from ..obs import get_obs
from .physical import (
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    PhysicalPlan,
    WorkMeter,
)
from .storage import StorageManager
from .types import Row, Schema, SqlError

ENGINES = ("columnar", "row")

#: The engine a caller that names none gets.
DEFAULT_ENGINE = "columnar"


def resolve_engine(engine: Optional[str]) -> str:
    """Map None to the process default and validate the name."""
    chosen = engine if engine is not None else DEFAULT_ENGINE
    if chosen not in ENGINES:
        raise SqlError(
            f"unknown execution engine {chosen!r} (expected one of {ENGINES})"
        )
    return chosen


@dataclass
class ExecutionResult:
    """Rows produced by a plan plus the work actually performed.

    ``meter`` holds the real CPU/IO work in reference-machine ms; the
    simulation layer turns it into an observed response time under the
    server's current load and link conditions.  ``engine`` records which
    execution path produced the rows.
    """

    rows: List[Row]
    schema: Schema
    meter: WorkMeter
    engine: str

    @property
    def row_count(self) -> int:
        return len(self.rows)


def execute_plan(
    plan: PhysicalPlan,
    storage: StorageManager,
    engine: Optional[str] = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ExecutionResult:
    """Run *plan* to completion against *storage*."""
    chosen = resolve_engine(engine)
    ctx = ExecutionContext(storage=storage, batch_size=batch_size)
    start = time.perf_counter()
    batches = 0
    if chosen == "columnar":
        # Late materialisation: row tuples exist only here, at the
        # result boundary.
        rows: List[Row] = []
        extend = rows.extend
        for batch in plan.rows_columnar(ctx):
            batches += 1
            extend(batch.materialize())
    else:
        rows = list(plan.rows(ctx))
    elapsed = time.perf_counter() - start
    ctx.meter.tuples_out = len(rows)

    obs = get_obs()
    if chosen == "columnar":
        obs.metrics.counter("engine_batches_total", engine=chosen).inc(
            batches
        )
    if elapsed > 0.0:
        obs.metrics.histogram("engine_rows_per_sec", engine=chosen).observe(
            len(rows) / elapsed
        )
    return ExecutionResult(
        rows=rows, schema=plan.output_schema, meter=ctx.meter, engine=chosen
    )
