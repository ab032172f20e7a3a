"""Physical operators: costing and iterator execution.

Every operator supports costing and two execution engines:

* ``estimate_cost(estimator)`` — statistics-only costing.  This works on a
  catalog with **no data attached** (the "simulated federated system" of
  the paper uses exactly this path for what-if planning).
* ``rows_columnar(ctx)`` — the production engine: batch execution yielding
  :class:`~repro.sqlengine.columnar.ColumnBatch` objects (column lists +
  selection vector).  Operators narrow selections instead of copying
  rows and defer tuple construction to the serialisation boundary
  (``compile_columnar`` / ``compile_filter_columnar`` kernels).
  Execution meters the actual work performed (CPU/IO in
  reference-machine ms) into ``ctx.meter``; the simulation layer
  converts metered work into observed response time under the server's
  current load.
* ``rows(ctx)`` — the reference engine: tuple-at-a-time iterators, kept
  small and obviously correct so the differential tests have something
  independent to hold the columnar engine's rows and meters to.

Metering is charged per *lifecycle event* (stream start, build/
materialize phase end, stream end) as ``count * unit_cost`` with integer
counts accumulated locally, in both engines, in the same order — so the
row and columnar engines produce bit-for-bit identical ``WorkMeter``
totals for any plan that runs to completion (see docs/execution.md; a
``Limit`` that abandons its input early is the one documented exception,
since the columnar engine scans in batch granularity).

Operators are immutable; a plan tree is shared freely between the
optimizer, the federated result, QCC's records and the executor.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from itertools import compress, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..numeric import left_sum_from
from ..obs.profile import NULL_PROFILER, OperatorProfiler, get_profiler
from .catalog import TableDef
from .columnar import (
    ColumnBatch,
    ColumnData,
    GatherColumn,
    TakeColumn,
    ValueColumn,
)
from .cost import (
    AGG_UPDATE_COST,
    CPU_OPERATOR_COST,
    CPU_TUPLE_COST,
    HASH_BUILD_COST,
    HASH_PROBE_COST,
    INDEX_PROBE_COST,
    MATERIALIZE_TUPLE_COST,
    SEQ_PAGE_COST,
    SORT_COMPARE_COST,
    STARTUP_COST,
    PlanCost,
    ServerProfile,
    StatsContext,
    equijoin_selectivity,
    estimate_selectivity,
    pages_for,
)
from .expressions import (
    AggregateCall,
    ColumnRef,
    Expression,
    Literal,
    conjuncts,
    walk,
)
from .parser import OrderItem, SelectItem
from .storage import StorageManager
from .types import Column, ColumnType, Row, Schema, SqlError

#: Rows per batch in the columnar engine.  Large enough to amortise
#: per-batch Python overhead, small enough to keep batches cache-warm.
DEFAULT_BATCH_SIZE = 1024


class ExecutionError(SqlError):
    """Raised when a plan cannot be executed."""


class WorkMeter:
    """Accumulates the actual work performed by an execution.

    Units are reference-machine milliseconds, the same currency as the
    cost model, so (metered work) / (estimated cost) is dimensionless.
    """

    __slots__ = ("cpu_ms", "io_ms", "tuples_out")

    def __init__(self) -> None:
        self.cpu_ms = 0.0
        self.io_ms = 0.0
        self.tuples_out = 0

    @property
    def total_ms(self) -> float:
        return self.cpu_ms + self.io_ms

    def merge(self, other: "WorkMeter") -> None:
        self.cpu_ms += other.cpu_ms
        self.io_ms += other.io_ms
        self.tuples_out += other.tuples_out


@dataclass
class ExecutionContext:
    """Everything an operator needs at run time.

    ``batch_size`` is the row count per batch on the columnar path.
    ``profiler`` is captured from the process-global profiling state at
    construction time (``NULL_PROFILER`` unless
    ``repro.obs.profile.enable_profiling()`` is active), so every
    operator dispatch is one attribute load plus one identity check.
    """

    storage: StorageManager
    meter: WorkMeter = field(default_factory=WorkMeter)
    batch_size: int = DEFAULT_BATCH_SIZE
    profiler: OperatorProfiler = field(default_factory=get_profiler)


class Selectivities:
    """Selectivities under one statistics context, each evaluated once:
    per predicate (by object identity) and per join-key list.

    No profile enters a selectivity, so the estimators
    of every server that prices one bound block share one of these
    (``optimizer.PlanSpace``).
    """

    __slots__ = ("stats", "_predicates", "_equijoins")

    def __init__(self, stats: StatsContext):
        self.stats = stats
        #: id(predicate) -> (predicate, (selectivity, operator count)); the
        #: predicate is held so its id cannot be reused.
        self._predicates: Dict[int, Tuple[Expression, Tuple[float, int]]] = {}
        self._equijoins: Dict[Tuple[Tuple[str, ...], ...], float] = {}

    def predicate(self, predicate: Optional[Expression]) -> Tuple[float, int]:
        """``(selectivity, operator count)`` of *predicate*."""
        known = self._predicates.get(id(predicate))
        if known is None:
            known = self._predicates[id(predicate)] = predicate, (
                estimate_selectivity(predicate, self.stats),
                _count_operators(predicate),
            )
        return known[1]

    def equijoin(
        self, left_keys: Tuple[str, ...], right_keys: Tuple[str, ...]
    ) -> float:
        """Combined selectivity of the equalities ``left_keys = right_keys``."""
        selectivity = self._equijoins.get((left_keys, right_keys))
        if selectivity is None:
            selectivity = 1.0
            for lk, rk in zip(left_keys, right_keys):
                selectivity *= equijoin_selectivity(
                    self.stats.column(lk), self.stats.column(rk)
                )
            self._equijoins[left_keys, right_keys] = selectivity
        return selectivity


class CostEstimator:
    """The profile a plan is costed under, and everything costed under it.

    Under one profile a node's cost is a pure function of the node, so an
    estimator evaluates each formula once per plan node, by object
    identity, and each selectivity once (``predicate`` / ``equijoin``,
    from *selectivities*, its own unless handed a shared one).  It lives
    for one ``Optimizer.optimize`` / ``Database.estimate_plan`` /
    ``estimate_merge_cost`` / EXPLAIN ANALYZE rendering and must not be
    reused once the statistics behind *stats* may have moved.  Nothing
    is remembered on the nodes: they outlive the call in the statement
    and plan caches and are re-costed there under other profiles.
    """

    def __init__(
        self,
        profile: ServerProfile,
        stats: StatsContext,
        selectivities: Optional[Selectivities] = None,
    ):
        self.profile = profile
        self.stats = stats
        #: node -> cost (nodes hash by identity).
        self.costs: Dict["PhysicalPlan", PlanCost] = {}
        if selectivities is None:
            selectivities = Selectivities(stats)
        self.predicate = selectivities.predicate
        self.equijoin = selectivities.equijoin


class PhysicalPlan:
    """Base class of all physical operators."""

    #: filled in by subclasses
    output_schema: Schema
    #: :meth:`signature`, once computed: a node is never reassigned after
    #: ``__init__`` and cached plans are asked for it at every pricing.
    _signature: Optional[str] = None

    def children(self) -> Tuple["PhysicalPlan", ...]:
        return ()

    def estimate_cost(self, estimator: CostEstimator) -> PlanCost:
        """This tree's cost under *estimator*: the operator's formula over
        its children's costs, evaluated once per node and estimator."""
        cost = estimator.costs.get(self)
        if cost is None:
            cost = estimator.costs[self] = self._cost(
                estimator,
                *[child.estimate_cost(estimator) for child in self.children()],
            )
        return cost

    def _cost(self, estimator: CostEstimator, *children: PlanCost) -> PlanCost:
        """The operator's cost formula, pure in the node, the estimator's
        profile and the costs of ``children()`` (same order)."""
        raise NotImplementedError

    def rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        """Row-at-a-time execution (dispatch; operators implement ``_rows``).

        When the operator profiler is enabled the stream is wrapped in a
        per-node counting shim; with the default :data:`NULL_PROFILER`
        this is a single identity check per stream open.
        """
        profiler = ctx.profiler
        if profiler is NULL_PROFILER:
            return self._rows(ctx)
        return profiler.profile_rows(self, ctx)

    def rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        """Columnar execution (dispatch; operators implement ``_rows_columnar``)."""
        profiler = ctx.profiler
        if profiler is NULL_PROFILER:
            return self._rows_columnar(ctx)
        return profiler.profile_columnar(self, ctx)

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        raise NotImplementedError

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        """Columnar execution; yields non-empty :class:`ColumnBatch`es,
        pulling children through ``rows_columnar``."""
        raise NotImplementedError

    def describe(self) -> str:
        """One-line operator description (also the plan signature leaf)."""
        raise NotImplementedError

    def signature(self) -> str:
        """Stable identity of this plan tree.

        Two plans with equal signatures perform identical work; the paper's
        fragment-level load balancing requires *identical* plans before it
        will treat them as exchangeable (Section 4.1).
        """
        if self._signature is None:
            inner = ",".join(child.signature() for child in self.children())
            self._signature = (
                f"{self.describe()}[{inner}]" if inner else self.describe()
            )
        return self._signature

    def explain_lines(self, indent: int = 0) -> List[str]:
        lines = ["  " * indent + self.describe()]
        for child in self.children():
            lines.extend(child.explain_lines(indent + 1))
        return lines

    def explain(self) -> str:
        return "\n".join(self.explain_lines())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.describe()}>"


def _drain_columnar(plan: "PhysicalPlan", ctx: ExecutionContext) -> List[Row]:
    """Run *plan* to completion on the columnar path, as row tuples."""
    data: List[Row] = []
    for batch in plan.rows_columnar(ctx):
        data.extend(batch.materialize())
    return data


def _concat_column(batches: Sequence[ColumnBatch], j: int) -> List[Any]:
    """Column *j* across *batches*, selection-aligned (read-only: a single
    batch contributes its own cached value list)."""
    if len(batches) == 1:
        return batches[0].column_values(j)
    out: List[Any] = []
    for batch in batches:
        out.extend(batch.column_values(j))
    return out


def _metered(
    stream: Iterator[Any],
    meter: WorkMeter,
    unit_cost: float,
    size: Optional[Callable[[Any], int]] = None,
) -> Iterator[Any]:
    """Pass *stream* through, charging ``count * unit_cost`` CPU at its end.

    The one count-and-flush both engines meter their input with: *count*
    is the number of items pulled — or, with ``size=len``, the rows in
    the batches pulled — accumulated as an integer and charged once,
    when the stream is exhausted or the consumer abandons it (a
    ``Limit`` upstream).  An abandoned producer is closed first, so its
    own end-of-stream charges land before this one exactly as they do
    on exhaustion: float addition is not associative, and the meter
    totals must not depend on how a stream ended.
    """
    count = 0
    try:
        if size is None:
            for item in stream:
                count += 1
                yield item
        else:
            for item in stream:
                count += size(item)
                yield item
    finally:
        close = getattr(stream, "close", None)
        if close is not None:
            close()
        meter.cpu_ms += count * unit_cost


def _narrowed(
    batch: ColumnBatch, kernels: Sequence[Callable[[ColumnBatch], List[int]]]
) -> Optional[ColumnBatch]:
    """Apply AND-ed selection kernels in turn; None once nothing survives.

    Each conjunct sees only the survivors of the previous one, no row is
    copied, and the result shares its input's column objects.
    """
    for kernel in kernels:
        sel = kernel(batch)
        if not sel:
            return None
        batch = batch.with_sel(sel)
    return batch


def _predicate_sql(predicate: Optional[Expression]) -> str:
    return predicate.sql() if predicate is not None else ""


def _count_operators(predicate: Optional[Expression]) -> int:
    if predicate is None:
        return 0
    return sum(1 for _ in walk(predicate))


# ---------------------------------------------------------------------------
# Scans
# ---------------------------------------------------------------------------


class SeqScan(PhysicalPlan):
    """Full scan of a base table with an optional pushed-down predicate."""

    def __init__(
        self,
        table: TableDef,
        binding: str,
        predicate: Optional[Expression] = None,
    ):
        self.table = table
        self.binding = binding
        self.predicate = predicate
        self.output_schema = table.schema.rename_table(binding)

    def _cost(self, estimator: CostEstimator) -> PlanCost:
        profile = estimator.profile
        rows_in = self.table.stats.row_count
        width = self.output_schema.row_width_bytes()
        selectivity, ops = estimator.predicate(self.predicate)
        rows_out = max(rows_in * selectivity, 0.0)
        io = profile.io_ms(pages_for(rows_in, width) * SEQ_PAGE_COST)
        cpu = profile.cpu_ms(
            rows_in * (CPU_TUPLE_COST + ops * CPU_OPERATOR_COST)
        )
        total = STARTUP_COST + io + cpu
        first = STARTUP_COST + (io + cpu) / max(rows_out, 1.0)
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=rows_out,
            width_bytes=width,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        heap = ctx.storage.table(self.table.name)
        meter = ctx.meter
        width = self.output_schema.row_width_bytes()
        meter.io_ms += pages_for(len(heap), width) * SEQ_PAGE_COST
        predicate = (
            self.predicate.compile(self.output_schema)
            if self.predicate is not None
            else None
        )
        ops = _count_operators(self.predicate)
        per_row = CPU_TUPLE_COST + ops * CPU_OPERATOR_COST
        for row in _metered(heap.scan(), meter, per_row):
            if predicate is None or predicate(row) is True:
                yield row

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        heap = ctx.storage.table(self.table.name)
        meter = ctx.meter
        width = self.output_schema.row_width_bytes()
        meter.io_ms += pages_for(len(heap), width) * SEQ_PAGE_COST
        kernels = [
            c.compile_filter_columnar(self.output_schema)
            for c in conjuncts(self.predicate)
        ]
        ops = _count_operators(self.predicate)
        per_row = CPU_TUPLE_COST + ops * CPU_OPERATOR_COST
        table_cols = heap.columnar()
        n = table_cols.n_rows
        size = ctx.batch_size
        windows = (
            table_cols.batch(start, min(start + size, n))
            for start in range(0, n, size)
        )
        for window in _metered(windows, meter, per_row, len):
            batch = _narrowed(window, kernels)
            if batch is not None:
                yield batch

    def describe(self) -> str:
        pred = _predicate_sql(self.predicate)
        suffix = f" WHERE {pred}" if pred else ""
        return f"SeqScan({self.table.name} AS {self.binding}{suffix})"


class IndexScan(PhysicalPlan):
    """Equality probe into a hash index, with an optional residual filter."""

    def __init__(
        self,
        table: TableDef,
        binding: str,
        column: str,
        value: Expression,
        residual: Optional[Expression] = None,
    ):
        if not isinstance(value, Literal):
            raise ExecutionError("IndexScan requires a literal probe value")
        self.table = table
        self.binding = binding
        self.column = column.rpartition(".")[2]
        self.value = value
        self.residual = residual
        self.output_schema = table.schema.rename_table(binding)

    def _cost(self, estimator: CostEstimator) -> PlanCost:
        profile = estimator.profile
        stats = self.table.stats.for_column(self.column)
        rows_in = self.table.stats.row_count
        n_distinct = stats.n_distinct if stats else max(rows_in, 1)
        matched = rows_in / max(n_distinct, 1)
        selectivity, ops = estimator.predicate(self.residual)
        rows_out = max(matched * selectivity, 0.0)
        width = self.output_schema.row_width_bytes()
        probe = profile.io_ms(INDEX_PROBE_COST)
        cpu = profile.cpu_ms(
            matched * (CPU_TUPLE_COST + ops * CPU_OPERATOR_COST)
        )
        total = STARTUP_COST + probe + cpu
        first = STARTUP_COST + probe + cpu / max(rows_out, 1.0)
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=rows_out,
            width_bytes=width,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        heap = ctx.storage.table(self.table.name)
        index = heap.index_on(self.column)
        if index is None:
            raise ExecutionError(
                f"no index on {self.table.name}.{self.column}"
            )
        meter = ctx.meter
        meter.io_ms += INDEX_PROBE_COST
        residual = (
            self.residual.compile(self.output_schema)
            if self.residual is not None
            else None
        )
        ops = _count_operators(self.residual)
        per_row = CPU_TUPLE_COST + ops * CPU_OPERATOR_COST
        matched = map(heap.fetch, index.lookup(self.value.value))
        for row in _metered(matched, meter, per_row):
            if residual is None or residual(row) is True:
                yield row

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        heap = ctx.storage.table(self.table.name)
        index = heap.index_on(self.column)
        if index is None:
            raise ExecutionError(
                f"no index on {self.table.name}.{self.column}"
            )
        meter = ctx.meter
        meter.io_ms += INDEX_PROBE_COST
        kernels = [
            c.compile_filter_columnar(self.output_schema)
            for c in conjuncts(self.residual)
        ]
        ops = _count_operators(self.residual)
        per_row = CPU_TUPLE_COST + ops * CPU_OPERATOR_COST
        rids = index.lookup(self.value.value)
        table_cols = heap.columnar()
        size = ctx.batch_size
        fetched = (
            table_cols.take_batch(list(rids[start : start + size]))
            for start in range(0, len(rids), size)
        )
        for matched in _metered(fetched, meter, per_row, len):
            batch = _narrowed(matched, kernels)
            if batch is not None:
                yield batch

    def describe(self) -> str:
        parts = [f"{self.table.name} AS {self.binding}", f"{self.column}={self.value.sql()}"]
        if self.residual is not None:
            parts.append(f"WHERE {self.residual.sql()}")
        return f"IndexScan({' '.join(parts)})"


# ---------------------------------------------------------------------------
# Filter / Project
# ---------------------------------------------------------------------------


class Filter(PhysicalPlan):
    """Row filter applied above an arbitrary child plan."""

    def __init__(self, child: PhysicalPlan, predicate: Expression):
        self.child = child
        self.predicate = predicate
        self.output_schema = child.output_schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        selectivity, ops = estimator.predicate(self.predicate)
        rows_out = max(child.rows * selectivity, 0.0)
        cpu = profile.cpu_ms(child.rows * ops * CPU_OPERATOR_COST)
        total = child.total + cpu
        first = child.first_tuple + cpu / max(rows_out, 1.0)
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=rows_out,
            width_bytes=child.width_bytes,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        predicate = self.predicate.compile(self.output_schema)
        ops = _count_operators(self.predicate)
        per_row = ops * CPU_OPERATOR_COST
        for row in _metered(self.child.rows(ctx), ctx.meter, per_row):
            if predicate(row) is True:
                yield row

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        kernels = [
            c.compile_filter_columnar(self.output_schema)
            for c in conjuncts(self.predicate)
        ]
        ops = _count_operators(self.predicate)
        per_row = ops * CPU_OPERATOR_COST
        child = self.child.rows_columnar(ctx)
        for in_batch in _metered(child, ctx.meter, per_row, len):
            batch = _narrowed(in_batch, kernels)
            if batch is not None:
                yield batch

    def describe(self) -> str:
        return f"Filter({self.predicate.sql()})"


class Project(PhysicalPlan):
    """Expression projection (non-aggregating)."""

    def __init__(
        self,
        child: PhysicalPlan,
        items: Sequence[SelectItem],
        output_schema: Schema,
    ):
        self.child = child
        self.items = tuple(items)
        self.output_schema = output_schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        cpu = profile.cpu_ms(
            child.rows * len(self.items) * CPU_OPERATOR_COST
        )
        width = self.output_schema.row_width_bytes()
        return PlanCost(
            first_tuple=child.first_tuple,
            total=child.total + cpu,
            rows=child.rows,
            width_bytes=width,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        evaluators = [
            item.expr.compile(self.child.output_schema)
            for item in self.items
            if item.expr is not None
        ]
        per_row = len(evaluators) * CPU_OPERATOR_COST
        for row in _metered(self.child.rows(ctx), ctx.meter, per_row):
            yield tuple(f(row) for f in evaluators)

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Plain column references pass the underlying column straight
        # through (narrowed to the selection); computed items run a
        # columnar kernel into a value column.
        child_schema = self.child.output_schema
        plans: List[Tuple[int, Optional[Any]]] = []
        for item in self.items:
            if item.expr is None:
                continue
            if isinstance(item.expr, ColumnRef):
                plans.append((child_schema.index_of(item.expr.name), None))
            else:
                plans.append((-1, item.expr.compile_columnar(child_schema)))
        per_row = len(plans) * CPU_OPERATOR_COST
        child = self.child.rows_columnar(ctx)
        for batch in _metered(child, ctx.meter, per_row, len):
            sel = batch.sel
            cols: List[ColumnData] = []
            for idx, kernel in plans:
                if kernel is None:
                    col = batch.cols[idx]
                    cols.append(col if sel is None else TakeColumn(col, sel))
                else:
                    cols.append(ValueColumn(kernel(batch)))
            yield ColumnBatch(tuple(cols), len(batch), None)

    def describe(self) -> str:
        return f"Project({', '.join(item.sql() for item in self.items)})"


# ---------------------------------------------------------------------------
# Joins
# ---------------------------------------------------------------------------


class NestedLoopJoin(PhysicalPlan):
    """Nested-loop join with materialised inner and arbitrary condition.

    With ``outer`` set, unmatched left rows are emitted padded with
    NULLs (LEFT OUTER JOIN semantics; the condition acts as the ON
    clause).
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        condition: Optional[Expression] = None,
        outer: bool = False,
    ):
        self.left = left
        self.right = right
        self.condition = condition
        self.outer = outer
        self.output_schema = left.output_schema.concat(right.output_schema)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _cost(
        self, estimator: CostEstimator, left: PlanCost, right: PlanCost
    ) -> PlanCost:
        profile = estimator.profile
        pairs = left.rows * right.rows
        selectivity, ops = estimator.predicate(self.condition)
        rows_out = max(pairs * selectivity, 0.0)
        if self.outer:
            rows_out = max(rows_out, left.rows)
        ops = max(ops, 1)
        cpu = profile.cpu_ms(
            pairs * ops * CPU_OPERATOR_COST
            + right.rows * MATERIALIZE_TUPLE_COST
        )
        total = left.total + right.total + cpu
        first = left.first_tuple + right.total + cpu / max(rows_out, 1.0)
        width = left.width_bytes + right.width_bytes
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=rows_out,
            width_bytes=width,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        meter = ctx.meter
        inner = list(self.right.rows(ctx))
        meter.cpu_ms += len(inner) * MATERIALIZE_TUPLE_COST
        condition = (
            self.condition.compile(self.output_schema)
            if self.condition is not None
            else None
        )
        ops = max(_count_operators(self.condition), 1)
        per_pair = ops * CPU_OPERATOR_COST
        null_pad = (None,) * len(self.right.output_schema)
        pairs = 0
        try:
            for left_row in self.left.rows(ctx):
                matched = False
                for right_row in inner:
                    pairs += 1
                    combined = left_row + right_row
                    if condition is None or condition(combined) is True:
                        matched = True
                        yield combined
                if self.outer and not matched:
                    yield left_row + null_pad
        finally:
            meter.cpu_ms += pairs * per_pair

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Batch-granular: one output batch (and one ``pairs`` charge)
        # per left batch.  The condition runs as a selection kernel over
        # one candidate batch per left row — its values broadcast next
        # to the materialised inner columns — so the surviving selection
        # *is* the list of matching inner rows.
        meter = ctx.meter
        inner = _drain_columnar(self.right, ctx)
        meter.cpu_ms += len(inner) * MATERIALIZE_TUPLE_COST
        kernel = (
            self.condition.compile_filter_columnar(self.output_schema)
            if self.condition is not None
            else None
        )
        ops = max(_count_operators(self.condition), 1)
        per_pair = ops * CPU_OPERATOR_COST
        null_pad = (None,) * len(self.right.output_schema)
        width = len(self.output_schema)
        n_inner = len(inner)
        inner_cols = ColumnBatch.from_rows(inner, len(null_pad)).cols
        pairs = 0
        try:
            for batch in self.left.rows_columnar(ctx):
                pairs += len(batch) * n_inner
                out: List[Row] = []
                for left_row in batch.materialize():
                    matches: Sequence[Row] = inner
                    if kernel is not None and inner:
                        candidates = ColumnBatch(
                            tuple(
                                ValueColumn([v] * n_inner, v is None)
                                for v in left_row
                            )
                            + inner_cols,
                            n_inner,
                            None,
                        )
                        matches = [inner[i] for i in kernel(candidates)]
                    if matches:
                        out.extend(left_row + r for r in matches)
                    elif self.outer:
                        out.append(left_row + null_pad)
                if out:
                    yield ColumnBatch.from_rows(out, width)
        finally:
            meter.cpu_ms += pairs * per_pair

    def describe(self) -> str:
        cond = _predicate_sql(self.condition) or "TRUE"
        kind = "NestedLoopOuterJoin" if self.outer else "NestedLoopJoin"
        return f"{kind}(ON {cond})"


class HashJoin(PhysicalPlan):
    """Equi-hash-join; the right child is the build side.

    With ``outer`` set, LEFT OUTER semantics apply: left rows with no
    surviving match (key miss, NULL key, or residual rejection) are
    emitted padded with NULLs.  The probe side being the preserved side
    makes the left-outer variant natural.
    """

    def __init__(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        left_keys: Sequence[str],
        right_keys: Sequence[str],
        residual: Optional[Expression] = None,
        outer: bool = False,
    ):
        if len(left_keys) != len(right_keys) or not left_keys:
            raise ExecutionError("hash join requires matching key lists")
        self.left = left
        self.right = right
        self.left_keys = tuple(left_keys)
        self.right_keys = tuple(right_keys)
        self.residual = residual
        self.outer = outer
        self.output_schema = left.output_schema.concat(right.output_schema)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _cost(
        self, estimator: CostEstimator, left: PlanCost, right: PlanCost
    ) -> PlanCost:
        profile = estimator.profile
        selectivity = estimator.equijoin(self.left_keys, self.right_keys)
        rows_out = max(left.rows * right.rows * selectivity, 0.0)
        if self.residual is not None:
            rows_out *= estimator.predicate(self.residual)[0]
        if self.outer:
            rows_out = max(rows_out, left.rows)
        build = profile.cpu_ms(right.rows * HASH_BUILD_COST)
        probe = profile.cpu_ms(left.rows * HASH_PROBE_COST)
        emit = profile.cpu_ms(rows_out * CPU_TUPLE_COST)
        total = left.total + right.total + build + probe + emit
        first = right.total + build + left.first_tuple + (probe + emit) / max(
            rows_out, 1.0
        )
        width = left.width_bytes + right.width_bytes
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=rows_out,
            width_bytes=width,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        meter = ctx.meter
        right_schema = self.right.output_schema
        left_schema = self.left.output_schema
        right_idx = [right_schema.index_of(k) for k in self.right_keys]
        left_idx = [left_schema.index_of(k) for k in self.left_keys]

        buckets: Dict[Tuple[Any, ...], List[Row]] = {}
        built = 0
        for row in self.right.rows(ctx):
            built += 1
            key = tuple(row[i] for i in right_idx)
            if any(v is None for v in key):
                continue
            buckets.setdefault(key, []).append(row)
        meter.cpu_ms += built * HASH_BUILD_COST

        residual = (
            self.residual.compile(self.output_schema)
            if self.residual is not None
            else None
        )
        null_pad = (None,) * len(self.right.output_schema)
        probed = 0
        examined = 0
        try:
            for left_row in self.left.rows(ctx):
                probed += 1
                key = tuple(left_row[i] for i in left_idx)
                matched = False
                if not any(v is None for v in key):
                    for right_row in buckets.get(key, ()):
                        examined += 1
                        combined = left_row + right_row
                        if residual is None or residual(combined) is True:
                            matched = True
                            yield combined
                if self.outer and not matched:
                    yield left_row + null_pad
        finally:
            meter.cpu_ms += probed * HASH_PROBE_COST
            meter.cpu_ms += examined * CPU_TUPLE_COST

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        meter = ctx.meter
        right_schema = self.right.output_schema
        left_schema = self.left.output_schema
        right_idx = [right_schema.index_of(k) for k in self.right_keys]
        left_idx = [left_schema.index_of(k) for k in self.left_keys]
        single = len(right_idx) == 1
        right_width = len(right_schema)

        # Build: map keys to *global build row ids* (not row tuples) — the
        # build side stays columnar and its payload columns are only
        # gathered lazily, per output column, when something downstream
        # actually reads them.  Ids start at 1: slot 0 of every build
        # column is the NULL row, so a miss is the falsy id 0 and outer
        # padding is a gather like any other.  One C-level
        # ``dict.update`` per batch classifies the build as it goes: it is
        # unique (every key appears at most once — the FK→PK shape) iff
        # ``singles`` holds one entry per non-NULL key, so uniqueness
        # needs neither a second pass nor a list per key.
        build_batches: List[ColumnBatch] = []
        key_lists: List[List[Any]] = []
        singles: Dict[Any, int] = {}
        unique_build = True
        built = 0
        nulls = 0
        for right_batch in self.right.rows_columnar(ctx):
            build_batches.append(right_batch)
            if single:
                keys = right_batch.column_values(right_idx[0])
            else:
                key_cols = [right_batch.column_values(i) for i in right_idx]
                keys = list(zip(*key_cols))
                if any(None in col for col in key_cols):
                    # A NULL component makes the whole key NULL.
                    keys = [None if None in key else key for key in keys]
            key_lists.append(keys)
            first = built + 1
            built += len(keys)
            if unique_build:
                singles.update(zip(keys, range(first, built + 1)))
                if None in singles:
                    del singles[None]
                    nulls += keys.count(None)
                unique_build = len(singles) == built - nulls
        meter.cpu_ms += built * HASH_BUILD_COST

        kernel = (
            self.residual.compile_columnar(self.output_schema)
            if self.residual is not None
            else None
        )
        # A unique build lets the probe skip per-row bucket walks: the
        # per-row match list *is* the right-side gather list, and a
        # C-level ``count(0)`` decides whether any filtering is
        # needed at all.  Buckets exist only for a build with a repeated
        # key, or to hand the residual path the shape it walks.
        buckets: Dict[Any, Sequence[int]] = {}
        if not unique_build:
            singles.clear()
            setdefault = buckets.setdefault
            base = 1
            for keys in key_lists:
                for rid, key in enumerate(keys, base):
                    if key is not None:
                        setdefault(key, []).append(rid)
                base += len(keys)
        elif kernel is not None:
            buckets = {key: (rid,) for key, rid in singles.items()}
        # This frame lives as long as the probe stream does.
        del key_lists

        # Lazily concatenated build-side columns behind the NULL row, one
        # list per column, shared by every GatherColumn the probe emits.
        right_cache: Dict[int, List[Any]] = {}

        def right_values(j: int) -> List[Any]:
            vals = right_cache.get(j)
            if vals is None:
                vals = right_cache[j] = [None]
                for right_batch in build_batches:
                    vals.extend(right_batch.column_values(j))
            return vals

        def right_getter(j: int) -> Callable[[], List[Any]]:
            return lambda: right_values(j)

        outer = self.outer
        use_fast = kernel is None and unique_build
        get = singles.get if use_fast else buckets.get
        li = left_idx[0] if single else -1
        probed = 0
        examined = 0
        try:
            for batch in self.left.rows_columnar(ctx):
                probed += len(batch)
                psel = batch.selected()
                # Per selected probe row, the matching build id or bucket
                # (0 on a miss or a NULL key); ``map`` keeps the per-key
                # lookup loop in C.
                if single:
                    matches = list(map(get, batch.column_values(li), repeat(0)))
                else:
                    key_cols = [batch.column_values(i) for i in left_idx]
                    matches = list(map(get, zip(*key_cols), repeat(0)))

                if use_fast:
                    # ``matches`` holds one build row id per probe row,
                    # already aligned with ``psel``; an outer join's miss
                    # gathers the NULL row.
                    hits = len(matches) - matches.count(0)
                    examined += hits
                    if outer or hits == len(matches):
                        gl = psel
                        gr = matches
                    elif hits:
                        gl = list(compress(psel, matches))
                        gr = list(filter(None, matches))
                    else:
                        continue
                    if batch.sel is None and gl is psel:
                        # Full passthrough: every probe row survives in
                        # physical order, so the left columns are reused
                        # as-is (no per-column copy).
                        out_cols = list(batch.cols)
                    else:
                        out_cols = [
                            TakeColumn(col, gl) for col in batch.cols
                        ]
                    out_cols.extend(
                        GatherColumn(right_getter(j), gr)
                        for j in range(right_width)
                    )
                    yield ColumnBatch(tuple(out_cols), len(gl), None)
                    continue
                gl = []
                gr = []
                if kernel is None:
                    for pos, rights in zip(psel, matches):
                        if rights:
                            examined += len(rights)
                            if len(rights) == 1:
                                gl.append(pos)
                                gr.append(rights[0])
                            else:
                                gl.extend([pos] * len(rights))
                                gr.extend(rights)
                        elif outer:
                            gl.append(pos)
                            gr.append(0)
                else:
                    # Residual: gather candidates for the whole batch,
                    # evaluate the residual kernel once, then reassemble
                    # in probe-row order (with outer padding).
                    cgl: List[int] = []
                    cgr: List[int] = []
                    counts: List[int] = []
                    for pos, rights in zip(psel, matches):
                        if rights:
                            examined += len(rights)
                            counts.append(len(rights))
                            if len(rights) == 1:
                                cgl.append(pos)
                                cgr.append(rights[0])
                            else:
                                cgl.extend([pos] * len(rights))
                                cgr.extend(rights)
                        else:
                            counts.append(0)
                    if cgl:
                        cand_cols: List[ColumnData] = [
                            TakeColumn(col, cgl) for col in batch.cols
                        ]
                        cand_cols.extend(
                            GatherColumn(right_getter(j), cgr)
                            for j in range(right_width)
                        )
                        keep = kernel(
                            ColumnBatch(tuple(cand_cols), len(cgl), None)
                        )
                    else:
                        keep = []
                    k = 0
                    for pos, count in zip(psel, counts):
                        matched = False
                        for t in range(k, k + count):
                            if keep[t] is True:
                                matched = True
                                gl.append(cgl[t])
                                gr.append(cgr[t])
                        k += count
                        if outer and not matched:
                            gl.append(pos)
                            gr.append(0)
                if gl:
                    out_cols: List[ColumnData] = [
                        TakeColumn(col, gl) for col in batch.cols
                    ]
                    out_cols.extend(
                        GatherColumn(right_getter(j), gr)
                        for j in range(right_width)
                    )
                    yield ColumnBatch(tuple(out_cols), len(gl), None)
        finally:
            meter.cpu_ms += probed * HASH_PROBE_COST
            meter.cpu_ms += examined * CPU_TUPLE_COST

    def describe(self) -> str:
        keys = ", ".join(
            f"{l}={r}" for l, r in zip(self.left_keys, self.right_keys)
        )
        suffix = (
            f" AND {self.residual.sql()}" if self.residual is not None else ""
        )
        kind = "HashOuterJoin" if self.outer else "HashJoin"
        return f"{kind}({keys}{suffix})"


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


class _AggState:
    """Incremental state for one aggregate call over one group."""

    __slots__ = ("name", "distinct", "count", "total", "min", "max", "seen")

    def __init__(self, name: str, distinct: bool):
        self.name = name
        self.distinct = distinct
        self.count = 0
        self.total: Any = None
        self.min: Any = None
        self.max: Any = None
        self.seen = set() if distinct else None

    def update(self, value: Any) -> None:
        if self.name == "COUNT" and value is _STAR:
            self.count += 1
            return
        if value is None:
            return
        if self.seen is not None:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.name in ("SUM", "AVG"):
            self.total = value if self.total is None else self.total + value
        elif self.name == "MIN":
            self.min = value if self.min is None else min(self.min, value)
        elif self.name == "MAX":
            self.max = value if self.max is None else max(self.max, value)

    def result(self) -> Any:
        if self.name == "COUNT":
            return self.count
        if self.name == "SUM":
            return self.total
        if self.name == "AVG":
            return self.total / self.count if self.count else None
        if self.name == "MIN":
            return self.min
        return self.max


_STAR = object()


#: One group's COUNT / MIN / MAX over its non-NULL argument values, as
#: ``_AggState`` computes it: ``min``/``max`` return the first extremum,
#: which is ``update``'s keep-the-earlier-value tie behaviour.
_GROUP_FOLDS: Dict[str, Callable[[Sequence[Any]], Any]] = {
    "COUNT": len,
    "MIN": partial(min, default=None),
    "MAX": partial(max, default=None),
}


def _rewrite_over_internal(
    expr: Expression,
    group_map: Dict[str, int],
    agg_map: Dict[int, int],
) -> Expression:
    """Rewrite an output expression over the internal (keys + aggs) row."""
    key = expr.sql()
    if key in group_map:
        return ColumnRef(f"_k{group_map[key]}")
    if isinstance(expr, AggregateCall):
        position = agg_map[id(expr)]
        return ColumnRef(f"_a{position}")
    children = tuple(
        _rewrite_over_internal(c, group_map, agg_map)
        for c in expr.children()
    )
    if not children:
        return expr
    from .logical import _rebuild

    return _rebuild(expr, children)


class HashAggregate(PhysicalPlan):
    """Grouped aggregation producing the query's output items directly."""

    def __init__(
        self,
        child: PhysicalPlan,
        group_by: Sequence[Expression],
        items: Sequence[SelectItem],
        output_schema: Schema,
        having: Optional[Expression] = None,
    ):
        self.child = child
        self.group_by = tuple(group_by)
        self.items = tuple(items)
        self.having = having
        self.output_schema = output_schema

        self._group_positions = {
            e.sql(): i for i, e in enumerate(self.group_by)
        }
        # Collect the aggregate calls appearing in items/having, in order.
        self._agg_calls: List[AggregateCall] = []
        self._agg_positions: Dict[int, int] = {}
        sources: List[Expression] = [
            item.expr for item in self.items if item.expr is not None
        ]
        if having is not None:
            sources.append(having)
        for source in sources:
            for node in walk(source):
                if isinstance(node, AggregateCall) and id(node) not in (
                    self._agg_positions
                ):
                    self._agg_positions[id(node)] = len(self._agg_calls)
                    self._agg_calls.append(node)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _over_internal(self, expr: Expression) -> Expression:
        """*expr* rewritten over the internal (keys + aggregates) row."""
        return _rewrite_over_internal(
            expr, self._group_positions, self._agg_positions
        )

    def _internal_schema(self) -> Schema:
        columns = [
            Column(f"_k{i}", ColumnType.FLOAT) for i in range(len(self.group_by))
        ]
        columns.extend(
            Column(f"_a{i}", ColumnType.FLOAT)
            for i in range(len(self._agg_calls))
        )
        return Schema(tuple(columns))

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        groups = self._estimate_groups(child.rows, estimator)
        updates = child.rows * max(len(self._agg_calls), 1)
        cpu = profile.cpu_ms(
            updates * AGG_UPDATE_COST
            + groups * len(self.items) * CPU_OPERATOR_COST
        )
        total = child.total + cpu
        width = self.output_schema.row_width_bytes()
        # Aggregation is blocking: nothing is emitted before the input is
        # consumed, so first-tuple is essentially total minus emission.
        emit = profile.cpu_ms(
            groups * len(self.items) * CPU_OPERATOR_COST
        )
        first = max(child.total + cpu - emit, child.first_tuple)
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=max(groups, 1.0),
            width_bytes=width,
        )

    def _estimate_groups(self, rows_in: float, estimator: CostEstimator) -> float:
        if not self.group_by:
            return 1.0
        distinct = 1.0
        for expr in self.group_by:
            if isinstance(expr, ColumnRef):
                cs = estimator.stats.column(expr.name)
                distinct *= cs.n_distinct if cs else 10.0
            else:
                distinct *= 10.0
        return max(1.0, min(distinct, rows_in))

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        meter = ctx.meter
        child_schema = self.child.output_schema
        key_fns = [e.compile(child_schema) for e in self.group_by]
        arg_fns: List[Optional[Callable[[Row], Any]]] = [
            call.arg.compile(child_schema) if call.arg is not None else None
            for call in self._agg_calls
        ]

        groups: Dict[Tuple[Any, ...], List[_AggState]] = {}
        per_row = max(len(self._agg_calls), 1) * AGG_UPDATE_COST
        consumed = 0
        for row in self.child.rows(ctx):
            consumed += 1
            key = tuple(f(row) for f in key_fns)
            states = groups.get(key)
            if states is None:
                states = [
                    _AggState(call.name.upper(), call.distinct)
                    for call in self._agg_calls
                ]
                groups[key] = states
            for state, arg_fn in zip(states, arg_fns):
                value = _STAR if arg_fn is None else arg_fn(row)
                state.update(value)
        meter.cpu_ms += consumed * per_row

        if not groups and not self.group_by:
            # Aggregate over an empty input still yields one row.
            groups[()] = [
                _AggState(call.name.upper(), call.distinct)
                for call in self._agg_calls
            ]

        internal_schema = self._internal_schema()
        item_fns = [
            self._over_internal(item.expr).compile(internal_schema)
            for item in self.items
            if item.expr is not None
        ]
        having_fn = None
        if self.having is not None:
            having_fn = self._over_internal(self.having).compile(
                internal_schema
            )

        per_group = len(self.items) * CPU_OPERATOR_COST
        meter.cpu_ms += len(groups) * per_group
        for key, states in groups.items():
            internal_row = key + tuple(s.result() for s in states)
            if having_fn is not None and having_fn(internal_row) is not True:
                continue
            yield tuple(f(internal_row) for f in item_fns)

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        meter = ctx.meter
        child_schema = self.child.output_schema
        key_kernels = [e.compile_columnar(child_schema) for e in self.group_by]
        # Several aggregates often share one argument expression
        # (SUM(x), AVG(x), MIN(x)...): each distinct argument is
        # evaluated and gathered once.  ``arg_keys[i]`` indexes the shared
        # column for call *i*, or is None for COUNT(*).
        args: Dict[str, Expression] = {}
        for call in self._agg_calls:
            if call.arg is not None:
                args.setdefault(call.arg.sql(), call.arg)
        positions = {sql: i for i, sql in enumerate(args)}
        arg_keys = [
            None if call.arg is None else positions[call.arg.sql()]
            for call in self._agg_calls
        ]
        unique_kernels = [e.compile_columnar(child_schema) for e in args.values()]
        # Per unique argument: the child column index when the argument
        # is a bare column reference (so the column's validity metadata
        # can prove it NULL-free), else -1.
        unique_ref_idx = [
            child_schema.index_of(e.name) if isinstance(e, ColumnRef) else -1
            for e in args.values()
        ]

        single = len(key_kernels) == 1

        # The whole input, once: the key column and each distinct argument.
        keys: List[Any] = []
        cols: List[List[Any]] = [[] for _ in unique_kernels]
        # Per argument: has validity metadata proven it NULL-free?  A plain
        # reference's metadata does so for free; dropping NULLs costs less
        # than searching for them.
        dense = [ri >= 0 for ri in unique_ref_idx]
        consumed = 0
        for batch in self.child.rows_columnar(ctx):
            consumed += len(batch)
            if single:
                keys.extend(key_kernels[0](batch))
            elif key_kernels:
                keys.extend(zip(*[k(batch) for k in key_kernels]))
            for col, kernel in zip(cols, unique_kernels):
                col.extend(kernel(batch))
            dense = [d and not batch.cols[ri].has_nulls() for d, ri in zip(dense, unique_ref_idx)]
        per_row = max(len(self._agg_calls), 1) * AGG_UPDATE_COST
        meter.cpu_ms += consumed * per_row

        # Group once, in first-occurrence order, into row-id lists, and
        # gather each argument once per group, NULLs dropped (every
        # aggregate skips them).  Without an argument to gather, grouping
        # is a histogram: ``Counter`` counts at C speed, in the same order.
        if not key_kernels:
            group_keys, sizes = [()], [consumed]
            slices = [
                [col if d else [v for v in col if v is not None]]
                for col, d in zip(cols, dense)
            ]
        elif not unique_kernels:
            histogram = Counter(keys)
            group_keys, sizes = list(histogram), list(histogram.values())
            slices = []
        else:
            rows_of: Dict[Any, List[int]] = defaultdict(list)
            for ri, kv in enumerate(keys):
                rows_of[kv].append(ri)
            group_keys, members = list(rows_of), rows_of.values()
            sizes = list(map(len, members))
            slices = [
                [list(map(col.__getitem__, ids)) for ids in members] if d
                else [[v for v in map(col.__getitem__, ids) if v is not None] for ids in members]
                for col, d in zip(cols, dense)
            ]

        per_group = len(self.items) * CPU_OPERATOR_COST
        meter.cpu_ms += len(sizes) * per_group
        if not sizes:
            return
        # Each aggregate over all groups at once, one C reduction per
        # group; DISTINCT keeps each value's first occurrence.
        agg_cols: List[List[Any]] = []
        for call, ak in zip(self._agg_calls, arg_keys):
            if ak is None:
                agg_cols.append(sizes)
                continue
            values = slices[ak]
            if call.distinct:
                values = [list(dict.fromkeys(g)) for g in values]
            name = call.name.upper()
            if name in ("SUM", "AVG"):
                # ``bind`` admits numbers only.  Seeded with the first
                # value: ``0 + v`` would turn -0.0 into 0.0.
                totals = [left_sum_from(g[1:], g[0]) if g else None for g in values]
                if name == "AVG":
                    totals = [t / len(g) if g else None for t, g in zip(totals, values)]
                agg_cols.append(totals)
            else:
                agg_cols.append(list(map(_GROUP_FOLDS[name], values)))

        # HAVING and the output items run as columnar kernels over the
        # internal (keys + aggregates) rows of all groups at once.
        internal_schema = self._internal_schema()
        key_cols = [group_keys] if single else [list(c) for c in zip(*group_keys)]
        internal = ColumnBatch(tuple(map(ValueColumn, key_cols + agg_cols)), len(sizes), None)
        if self.having is not None:
            sel = self._over_internal(self.having).compile_filter_columnar(
                internal_schema
            )(internal)
            if not sel:
                return
            internal = internal.with_sel(sel)
        out_cols = [
            self._over_internal(item.expr).compile_columnar(
                internal_schema
            )(internal)
            for item in self.items
            if item.expr is not None
        ]
        size = ctx.batch_size
        total = len(internal)
        for start in range(0, total, size):
            stop = min(start + size, total)
            yield ColumnBatch(
                tuple(ValueColumn(c[start:stop]) for c in out_cols),
                stop - start,
                None,
            )

    def describe(self) -> str:
        keys = ", ".join(e.sql() for e in self.group_by) or "<global>"
        aggs = ", ".join(c.sql() for c in self._agg_calls) or "<none>"
        having = f" HAVING {self.having.sql()}" if self.having else ""
        return f"HashAggregate(keys=[{keys}] aggs=[{aggs}]{having})"


# ---------------------------------------------------------------------------
# Sort / Limit / Distinct
# ---------------------------------------------------------------------------


def _sort_key(values: Tuple[Any, ...]) -> Tuple[Tuple[bool, Any], ...]:
    """NULLs-last total order that survives mixed None values."""
    return tuple((v is None, v) for v in values)


class Sort(PhysicalPlan):
    """Blocking in-memory sort."""

    def __init__(self, child: PhysicalPlan, order_by: Sequence[OrderItem]):
        self.child = child
        self.order_by = tuple(order_by)
        self.output_schema = child.output_schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        n = max(child.rows, 1.0)
        compares = n * math.log2(n + 1.0)
        cpu = profile.cpu_ms(compares * SORT_COMPARE_COST)
        total = child.total + cpu
        return PlanCost(
            first_tuple=total - profile.cpu_ms(CPU_TUPLE_COST),
            total=total,
            rows=child.rows,
            width_bytes=child.width_bytes,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        meter = ctx.meter
        schema = self.child.output_schema
        key_fns = [
            (o.expr.compile(schema), o.ascending) for o in self.order_by
        ]
        data = list(self.child.rows(ctx))
        n = max(len(data), 1)
        meter.cpu_ms += n * math.log2(n + 1.0) * SORT_COMPARE_COST
        # Stable multi-key sort: apply keys right-to-left.
        for fn, ascending in reversed(key_fns):
            data.sort(key=lambda row: _sort_key((fn(row),)), reverse=not ascending)
        yield from data

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        meter = ctx.meter
        schema = self.child.output_schema
        batches = list(self.child.rows_columnar(ctx))
        total = sum(len(b) for b in batches)
        n = max(total, 1)
        meter.cpu_ms += n * math.log2(n + 1.0) * SORT_COMPARE_COST
        if not total:
            return
        width = len(schema)

        combined = ColumnBatch(
            tuple(
                ValueColumn(_concat_column(batches, j)) for j in range(width)
            ),
            total,
            None,
        )
        # Same stable right-to-left multi-pass as the other engines, but
        # the data never moves: an index permutation is threaded through
        # the passes (key values depend only on row content, so sorting
        # a permutation composes identically to sorting the rows).
        order = list(range(total))
        for o in reversed(self.order_by):
            col = o.expr.compile_columnar(schema)(combined)
            decorated = [(col[i] is None, col[i]) for i in order]
            perm = sorted(
                range(total),
                key=decorated.__getitem__,
                reverse=not o.ascending,
            )
            order = [order[p] for p in perm]
        size = ctx.batch_size
        for start in range(0, total, size):
            idxs = order[start : start + size]
            yield ColumnBatch(
                tuple(TakeColumn(c, idxs) for c in combined.cols),
                len(idxs),
                None,
            )

    def describe(self) -> str:
        keys = ", ".join(o.sql() for o in self.order_by)
        return f"Sort({keys})"


class Limit(PhysicalPlan):
    """Row-count limit."""

    def __init__(self, child: PhysicalPlan, count: int):
        if count < 0:
            raise ExecutionError("LIMIT must be non-negative")
        self.child = child
        self.count = count
        self.output_schema = child.output_schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        rows_out = min(child.rows, float(self.count))
        if child.rows > 0:
            fraction = rows_out / child.rows
        else:
            fraction = 1.0
        # A limit lets pipelined children stop early; approximate by
        # scaling the post-first-tuple cost.
        total = child.first_tuple + (child.total - child.first_tuple) * fraction
        return PlanCost(
            first_tuple=child.first_tuple,
            total=total,
            rows=rows_out,
            width_bytes=child.width_bytes,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        remaining = self.count
        if remaining == 0:
            return
        for row in self.child.rows(ctx):
            yield row
            remaining -= 1
            if remaining == 0:
                return

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        remaining = self.count
        if remaining == 0:
            return
        for batch in self.child.rows_columnar(ctx):
            n = len(batch)
            if n >= remaining:
                yield batch.first_n(remaining)
                return
            remaining -= n
            yield batch

    def describe(self) -> str:
        return f"Limit({self.count})"


class Distinct(PhysicalPlan):
    """Duplicate elimination via hashing."""

    def __init__(self, child: PhysicalPlan):
        self.child = child
        self.output_schema = child.output_schema

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        cpu = profile.cpu_ms(child.rows * HASH_BUILD_COST)
        rows_out = max(1.0, child.rows * 0.9)
        return PlanCost(
            first_tuple=child.first_tuple,
            total=child.total + cpu,
            rows=rows_out,
            width_bytes=child.width_bytes,
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        seen = set()
        per_row = HASH_BUILD_COST
        for row in _metered(self.child.rows(ctx), ctx.meter, per_row):
            key = _sort_key(row)
            if key in seen:
                continue
            seen.add(key)
            yield row

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        seen = set()
        add = seen.add
        per_row = HASH_BUILD_COST
        # Over a single column the raw value is its own distinct key
        # (``(v is None, v)`` wrapping partitions values identically), so
        # no row tuples and no per-row key tuples are built at all.
        single = len(self.output_schema) == 1
        child = self.child.rows_columnar(ctx)
        for batch in _metered(child, ctx.meter, per_row, len):
            psel = batch.selected()
            sel_out: List[int] = []
            if single:
                for pos, v in zip(psel, batch.column_values(0)):
                    if v not in seen:
                        add(v)
                        sel_out.append(pos)
            else:
                # Distinct keys span the whole row, so this is a
                # genuine materialisation point; survivors are
                # re-expressed as a narrowed selection over the
                # input columns.
                for pos, row in zip(psel, batch.materialize()):
                    key = tuple((v is None, v) for v in row)
                    if key not in seen:
                        add(key)
                        sel_out.append(pos)
            if sel_out:
                yield batch.with_sel(sel_out)

    def describe(self) -> str:
        return "Distinct()"


def stats_context_for_plan(plan: PhysicalPlan) -> StatsContext:
    """Rebuild the binding->stats mapping a plan was costed against.

    Lets a plan shipped across component boundaries (e.g. a fragment
    plan held by the meta-wrapper) be re-costed without access to the
    query block that produced it.
    """
    mapping = {}
    nodes: List[PhysicalPlan] = [plan]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (SeqScan, IndexScan)):
            mapping[node.binding] = node.table.stats
        nodes.extend(node.children())
    return StatsContext(mapping)


class MaterializedInput(PhysicalPlan):
    """An already-computed row set injected as a plan leaf.

    Used by the federated integrator to run II-side merge plans over
    fragment results returned by remote servers.
    """

    def __init__(self, name: str, schema: Schema, data: Sequence[Row]):
        self.name = name
        self.output_schema = schema
        self.data = list(data)

    def _cost(self, estimator: CostEstimator) -> PlanCost:
        profile = estimator.profile
        n = float(len(self.data))
        cpu = profile.cpu_ms(n * CPU_TUPLE_COST)
        return PlanCost(
            first_tuple=STARTUP_COST,
            total=STARTUP_COST + cpu,
            rows=max(n, 1.0),
            width_bytes=self.output_schema.row_width_bytes(),
        )

    def _rows(self, ctx: ExecutionContext) -> Iterator[Row]:
        return _metered(iter(self.data), ctx.meter, CPU_TUPLE_COST)

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        data = self.data
        size = ctx.batch_size
        width = len(self.output_schema)
        batches = (
            ColumnBatch.from_rows(data[start : start + size], width)
            for start in range(0, len(data), size)
        )
        return _metered(batches, ctx.meter, CPU_TUPLE_COST, len)

    def describe(self) -> str:
        return f"MaterializedInput({self.name} rows={len(self.data)})"
