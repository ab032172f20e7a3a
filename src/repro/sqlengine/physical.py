"""Physical operators: costing and batch execution.

Every operator supports:

* ``estimate_cost(estimator)`` — statistics-only costing.  This works on a
  catalog with **no data attached** (the "simulated federated system" of
  the paper uses exactly this path for what-if planning).
* ``rows_columnar(ctx)`` — execution: yields
  :class:`~repro.sqlengine.columnar.ColumnBatch` objects (column lists +
  selection vector).  Operators narrow selections instead of copying
  rows and defer tuple construction to the serialisation boundary;
  expressions run as generated kernels (``spine.selection_kernel`` /
  ``spine.value_kernel``), built once per node.
  Execution meters the actual work performed (CPU/IO in
  reference-machine ms) into ``ctx.meter``; the simulation layer
  converts metered work into observed response time under the server's
  current load.

Metering is charged per *lifecycle event* (stream start, build/
materialize phase end, stream end) as ``count * unit_cost`` with integer
counts accumulated locally, so a plan that runs to completion meters
bit-for-bit the same ``WorkMeter`` totals at every batch size (see
docs/execution.md; a ``Limit`` meters whole batches, so the work it
abandons depends on the batch size).  The tests hold rows to SQLite and
meters to golden digests and to that batch-size invariance.

Operators are immutable; a plan tree is shared freely between the
optimizer, the federated result, QCC's records and the executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..obs.profile import NULL_PROFILER, OperatorProfiler, get_profiler
from .catalog import TableDef
from .columnar import (
    ColumnBatch,
    ColumnData,
    TableColumns,
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
from .spine import Spine, selection_kernel, value_kernel
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

    def rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        """Columnar execution (dispatch; operators implement ``_rows_columnar``)."""
        profiler = ctx.profiler
        if profiler is NULL_PROFILER:
            return self._rows_columnar(ctx)
        return profiler.profile_columnar(self, ctx)

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        """Columnar execution; yields non-empty :class:`ColumnBatch`es,
        pulling children through ``rows_columnar``."""
        raise NotImplementedError

    def rows_whole(self, ctx: ExecutionContext, windows: bool) -> Iterator[ColumnBatch]:
        """Execution for a consumer that takes every batch: a ``SeqScan``
        under ``Filter``s is read in one pass (``_read_whole``)."""
        chain = [self]
        while isinstance(chain[-1], Filter):
            chain.append(chain[-1].child)
        if not isinstance(chain[-1], SeqScan):
            return self.rows_columnar(ctx)
        return _read_whole(chain[::-1], ctx, windows)

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
    stream: Iterator[ColumnBatch], meter: WorkMeter, unit_cost: float
) -> Iterator[ColumnBatch]:
    """Pass *stream* through, charging ``count * unit_cost`` CPU at its end.

    The one count-and-flush operators meter their input with: *count* is
    the number of rows in the batches pulled, accumulated as an integer
    and charged once, when the stream is exhausted or the consumer
    abandons it (a ``Limit`` upstream).  An abandoned producer is closed
    first, so its own end-of-stream charges land before this one exactly
    as they do on exhaustion: float addition is not associative, and the
    meter totals must not depend on how a stream ended.
    """
    count = 0
    try:
        for batch in stream:
            count += len(batch)
            yield batch
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


def _read_whole(
    chain: Sequence["PhysicalPlan"], ctx: ExecutionContext, windows: bool
) -> Iterator[ColumnBatch]:
    """A ``SeqScan`` (``chain[0]``) and the ``Filter``s above it as one pass:
    the survivors of each node's conjuncts in turn, as one batch (or its
    ``_windows``).  Charges and profiles are the nodes' streams', at the
    same meter readings (docs/execution.md, "The spine")."""
    meter = ctx.meter
    size = ctx.batch_size
    profiler = ctx.profiler
    replays = []
    if profiler is not NULL_PROFILER:
        # Opened outermost first, as the streams' first next() calls nest.
        replays = [profiler.fused(node, meter) for node in chain[::-1]][::-1]
    table_cols = chain[0]._open(ctx)
    n = table_cols.n_rows
    batch: Optional[ColumnBatch] = ColumnBatch(table_cols.cols, n, None) if n else None
    kept: List[Optional[ColumnBatch]] = []
    for node in chain:
        if batch is not None:
            batch = _narrowed(batch, node._kernels)
        kept.append(batch)
    for replay, out in zip(replays, kept):
        for view in _windows(out, size):
            replay.emit(len(view), min(size, n - view.sel[0] + view.sel[0] % size))
    try:
        yield from _windows(batch, size) if windows else [batch] if batch is not None else []
    finally:
        rows = n
        for level, (node, out) in enumerate(zip(chain, kept)):
            meter.cpu_ms += rows * node._per_row
            rows = len(out) if out is not None else 0
            if replays:
                replays[level].finish()


def _windows(batch: Optional[ColumnBatch], size: int) -> List[ColumnBatch]:
    """*batch* as views of its *size*-row windows: a windowed stream's."""
    rows = batch.selected() if batch is not None else []
    return [batch.with_sel(list(w)) for _, w in groupby(rows, lambda i: i // size)]


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

    def _open(self, ctx: ExecutionContext) -> TableColumns:
        """Charge the stored table's pages; its columns."""
        heap = ctx.storage.table(self.table.name)
        width = self.output_schema.row_width_bytes()
        ctx.meter.io_ms += pages_for(len(heap), width) * SEQ_PAGE_COST
        return heap.columnar()

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        table_cols = self._open(ctx)
        n = table_cols.n_rows
        size = ctx.batch_size
        windows = (
            table_cols.batch(start, min(start + size, n))
            for start in range(0, n, size)
        )
        for window in _metered(windows, ctx.meter, self._per_row):
            batch = _narrowed(window, self._kernels)
            if batch is not None:
                yield batch

    @cached_property
    def _per_row(self) -> float:
        return CPU_TUPLE_COST + _count_operators(self.predicate) * CPU_OPERATOR_COST

    @cached_property
    def _kernels(self) -> List[Callable[[ColumnBatch], List[int]]]:
        return [selection_kernel(c, self.output_schema) for c in conjuncts(self.predicate)]

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

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        heap = ctx.storage.table(self.table.name)
        index = heap.index_on(self.column)
        if index is None:
            raise ExecutionError(
                f"no index on {self.table.name}.{self.column}"
            )
        meter = ctx.meter
        meter.io_ms += INDEX_PROBE_COST
        ops = _count_operators(self.residual)
        per_row = CPU_TUPLE_COST + ops * CPU_OPERATOR_COST
        rids = index.lookup(self.value.value)
        table_cols = heap.columnar()
        size = ctx.batch_size
        fetched = (
            table_cols.take_batch(list(rids[start : start + size]))
            for start in range(0, len(rids), size)
        )
        for matched in _metered(fetched, meter, per_row):
            batch = _narrowed(matched, self._kernels)
            if batch is not None:
                yield batch

    @cached_property
    def _kernels(self) -> List[Callable[[ColumnBatch], List[int]]]:
        return [selection_kernel(c, self.output_schema) for c in conjuncts(self.residual)]

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

    @cached_property
    def _kernels(self) -> List[Callable[[ColumnBatch], List[int]]]:
        return [selection_kernel(c, self.output_schema) for c in conjuncts(self.predicate)]

    @cached_property
    def _per_row(self) -> float:
        return _count_operators(self.predicate) * CPU_OPERATOR_COST

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        child = self.child.rows_columnar(ctx)
        for in_batch in _metered(child, ctx.meter, self._per_row):
            batch = _narrowed(in_batch, self._kernels)
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

    @cached_property
    def _plans(self) -> List[Tuple[int, Optional[Callable[[ColumnBatch], List[Any]]]]]:
        """Per item, the child column it passes through, or its kernel."""
        child_schema = self.child.output_schema
        return [
            (child_schema.index_of(item.expr.name), None)
            if isinstance(item.expr, ColumnRef)
            else (-1, value_kernel(item.expr, child_schema))
            for item in self.items
            if item.expr is not None
        ]

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Plain column references pass the underlying column straight
        # through (narrowed to the selection); computed items run a
        # generated kernel into a value column.
        plans = self._plans
        per_row = len(plans) * CPU_OPERATOR_COST
        child = self.child.rows_columnar(ctx)
        for batch in _metered(child, ctx.meter, per_row):
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

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Batch-granular: one output batch (and one ``pairs`` charge)
        # per left batch.  The row evaluator runs the condition over
        # each joined pair, inner rows in order.
        meter = ctx.meter
        inner = _drain_columnar(self.right, ctx)
        meter.cpu_ms += len(inner) * MATERIALIZE_TUPLE_COST
        condition = (
            self.condition.compile(self.output_schema)
            if self.condition is not None
            else None
        )
        ops = max(_count_operators(self.condition), 1)
        per_pair = ops * CPU_OPERATOR_COST
        null_pad = (None,) * len(self.right.output_schema)
        width = len(self.output_schema)
        pairs = 0
        try:
            for batch in self.left.rows_columnar(ctx):
                pairs += len(batch) * len(inner)
                out: List[Row] = []
                for left_row in batch.materialize():
                    matches = [left_row + r for r in inner]
                    if condition is not None:
                        matches = [row for row in matches if condition(row) is True]
                    if matches:
                        out.extend(matches)
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

    #: The generated pipeline of this join's stream, built on first run.
    _spine: Optional[Spine] = None

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

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # The batch sink of this join's spine: the probes of the joins
        # down its left edge run in the same generated loop.
        spine = self._spine
        if spine is None:
            joins = [self]
            while isinstance(joins[-1].left, HashJoin):
                joins.append(joins[-1].left)
            spine = self._spine = Spine(joins[::-1], joins[-1].left)
        return spine.joined_batches(ctx)

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


@dataclass(frozen=True)
class _AggregateParts:
    """What one ``HashAggregate`` node runs, whatever its input."""

    spine: Spine
    having: Optional[Callable[[ColumnBatch], List[int]]]
    #: per output item, the internal column it is (a group key or an
    #: aggregate: no kernel to keep with the node), or its kernel
    items: List[Any]


class HashAggregate(PhysicalPlan):
    """Grouped aggregation producing the query's output items directly."""

    #: :meth:`_parts`, once built.
    _built: Optional[_AggregateParts] = None

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

    def _parts(self) -> "_AggregateParts":
        """The spine and the output kernels, built once per node: a plan
        node is reused through the plan and statement caches."""
        parts = self._built
        if parts is None:
            joins = []
            node = self.child
            while isinstance(node, HashJoin):
                joins.append(node)
                node = node.left
            internal_schema = self._internal_schema()
            having = (
                selection_kernel(self._over_internal(self.having), internal_schema)
                if self.having is not None
                else None
            )
            items = []
            for item in self.items:
                if item.expr is not None:
                    expr = self._over_internal(item.expr)
                    items.append(
                        internal_schema.index_of(expr.name)
                        if isinstance(expr, ColumnRef)
                        else value_kernel(expr, internal_schema)
                    )
            parts = self._built = _AggregateParts(
                Spine(joins[::-1], node, self.group_by, self._agg_calls),
                having,
                items,
            )
        return parts

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        meter = ctx.meter
        parts = self._parts()
        # The input and the joins down its left edge run in one generated
        # loop that folds every row into per-group accumulators.
        group_keys, agg_cols, consumed = parts.spine.aggregate_groups(ctx)
        per_row = max(len(self._agg_calls), 1) * AGG_UPDATE_COST
        meter.cpu_ms += consumed * per_row
        groups = len(group_keys)
        per_group = len(self.items) * CPU_OPERATOR_COST
        meter.cpu_ms += groups * per_group
        if not groups:
            return
        # HAVING and the output items run as generated kernels over the
        # internal (keys + aggregates) rows of all groups at once.
        if len(self.group_by) == 1:
            key_cols = [group_keys]
        else:
            key_cols = [list(c) for c in zip(*group_keys)]
        internal = ColumnBatch(
            tuple(map(ValueColumn, key_cols + agg_cols)), groups, None
        )
        if parts.having is not None:
            sel = parts.having(internal)
            if not sel:
                return
            internal = internal.with_sel(sel)
        out_cols = [
            internal.column_values(item) if isinstance(item, int) else item(internal)
            for item in parts.items
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

    @cached_property
    def _keys(self) -> List[Callable[[ColumnBatch], List[Any]]]:
        schema = self.child.output_schema
        return [value_kernel(o.expr, schema) for o in self.order_by]

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        meter = ctx.meter
        width = len(self.child.output_schema)
        batches = list(self.child.rows_columnar(ctx))
        total = sum(len(b) for b in batches)
        n = max(total, 1)
        meter.cpu_ms += n * math.log2(n + 1.0) * SORT_COMPARE_COST
        if not total:
            return
        combined = ColumnBatch(
            tuple(
                ValueColumn(_concat_column(batches, j)) for j in range(width)
            ),
            total,
            None,
        )
        # A stable right-to-left multi-pass, one sort per key, but
        # the data never moves: an index permutation is threaded through
        # the passes (key values depend only on row content, so sorting
        # a permutation composes identically to sorting the rows).
        order = list(range(total))
        for o, key in zip(reversed(self.order_by), reversed(self._keys)):
            col = key(combined)
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

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        seen = set()
        add = seen.add
        per_row = HASH_BUILD_COST
        # Over a single column the raw value is its own distinct key
        # (``(v is None, v)`` wrapping partitions values identically), so
        # no row tuples and no per-row key tuples are built at all.
        single = len(self.output_schema) == 1
        child = self.child.rows_columnar(ctx)
        for batch in _metered(child, ctx.meter, per_row):
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

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        data = self.data
        size = ctx.batch_size
        width = len(self.output_schema)
        batches = (
            ColumnBatch.from_rows(data[start : start + size], width)
            for start in range(0, len(data), size)
        )
        return _metered(batches, ctx.meter, CPU_TUPLE_COST)

    def describe(self) -> str:
        return f"MaterializedInput({self.name} rows={len(self.data)})"
