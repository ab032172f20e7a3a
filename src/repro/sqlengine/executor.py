"""Plan execution entry point.

One engine runs every physical plan: batch-at-a-time via
``rows_columnar()`` over column batches with selection vectors, with
row tuples built only here, at the result boundary (late
materialisation; docs/execution.md).  Its rows are held to SQLite, and
its ``WorkMeter`` totals to golden digests and to themselves at batch
sizes 1 and 2.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List

from ..obs import get_obs
from .physical import (
    DEFAULT_BATCH_SIZE,
    ExecutionContext,
    PhysicalPlan,
    WorkMeter,
)
from .storage import StorageManager
from .types import Row, Schema


@dataclass
class ExecutionResult:
    """Rows produced by a plan plus the work actually performed.

    ``meter`` holds the real CPU/IO work in reference-machine ms; the
    simulation layer turns it into an observed response time under the
    server's current load and link conditions.
    """

    rows: List[Row]
    schema: Schema
    meter: WorkMeter

    @property
    def row_count(self) -> int:
        return len(self.rows)


def execute_plan(
    plan: PhysicalPlan,
    storage: StorageManager,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> ExecutionResult:
    """Run *plan* to completion against *storage*."""
    ctx = ExecutionContext(storage=storage, batch_size=batch_size)
    start = time.perf_counter()
    batches = 0
    rows: List[Row] = []
    extend = rows.extend
    for batch in plan.rows_columnar(ctx):
        batches += 1
        extend(batch.materialize())
    elapsed = time.perf_counter() - start
    ctx.meter.tuples_out = len(rows)

    obs = get_obs()
    obs.metrics.counter("engine_batches_total").inc(batches)
    if elapsed > 0.0:
        obs.metrics.histogram("engine_rows_per_sec").observe(len(rows) / elapsed)
    return ExecutionResult(rows=rows, schema=plan.output_schema, meter=ctx.meter)
