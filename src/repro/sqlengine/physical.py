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

A node's units of work (``_per_row``, ``_per_pair``, ``_per_update``,
``_per_group``) are set once, when it is built; ``_cost`` reads them at
estimated counts and the charge sites at actual ones (docs/cost_model.md).

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
    Comparison,
    Expression,
    Literal,
    combine_conjuncts,
    conjuncts,
    is_equijoin_conjunct,
    walk,
)
from .parser import OrderItem, SelectItem
from .spine import Spine, selection_kernel, value_kernel
from .storage import HeapTable, StorageManager
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
    """Selectivities and row estimates under one statistics context,
    each evaluated once: per predicate (by object identity) and per
    joined relation set.  No profile enters either; each
    :class:`CostEstimator` keeps its own."""

    __slots__ = ("stats", "_predicates", "_rows")

    def __init__(self, stats: StatsContext):
        self.stats = stats
        #: id(predicate) -> (predicate, selectivity); the predicate is held
        #: so its id cannot be reused.
        self._predicates: Dict[int, Tuple[Expression, float]] = {}
        self._rows: Dict[frozenset, float] = {}

    def rows(self, join: "PhysicalPlan", estimator: "CostEstimator") -> float:
        """The rows of the relations an inner *join* joins, once per set (a
        block's plans join a set under one set of conjuncts): the own rows
        of each relation (any node no inner join is) by its first column's
        binding, times each join conjunct's selectivity by its columns or
        text; no join order enters (docs/cost_model.md, "Cardinality")."""
        key = join._relation_set
        rows = self._rows.get(key)
        if rows is None:
            relations, joins, nodes = {}, [], [join]
            while nodes:
                node = nodes.pop()
                if _is_inner_join(node):
                    joins.append(node)
                    nodes += node.left, node.right
                else:
                    relations[node.output_schema.columns[0].table] = node
            parts: List[Any] = []
            for node in joins:
                if isinstance(node, HashJoin):
                    parts += zip(node.left_keys, node.right_keys)
                    parts += conjuncts(node.residual)
                else:
                    parts += conjuncts(node.condition)
            rows = 1.0
            for name in sorted(relations):
                rows *= relations[name].estimate_cost(estimator).rows
            for _, selectivity in sorted(map(self._conjunct, parts)):
                rows *= selectivity
            self._rows[key] = rows
        return rows

    def _conjunct(self, part) -> Tuple[Tuple[str, ...], float]:
        """A join conjunct's sort key and selectivity: a key pair or ``a.x = b.y``
        is an edge, keyed by its columns; any other, by its text."""
        if not isinstance(part, tuple):
            if not is_equijoin_conjunct(part):
                return (part.sql(),), self.predicate(part)
            part = part.left.name, part.right.name
        key = tuple(sorted(part))
        return key, equijoin_selectivity(*map(self.stats.column, key))

    def predicate(self, predicate: Optional[Expression]) -> float:
        """The selectivity of *predicate*."""
        known = self._predicates.get(id(predicate))
        if known is None:
            selectivity = estimate_selectivity(predicate, self.stats)
            known = self._predicates[id(predicate)] = predicate, selectivity
        return known[1]


class CostEstimator:
    """The profile a plan is costed under, and everything costed under it.

    Under one profile a node's cost is a pure function of the node, so an
    estimator evaluates each formula once per plan node, by object
    identity, and each selectivity and relation set's rows once (its
    :class:`Selectivities`).  It lives for one ``Optimizer.optimize`` /
    ``Database.estimate_plan`` / ``estimate_merge_cost`` / EXPLAIN
    ANALYZE rendering and must not be reused once the statistics behind
    *stats* may have moved.  Nothing is remembered on the nodes: they
    outlive the call in the statement and plan caches and are re-costed
    there under other profiles.
    """

    def __init__(self, profile: ServerProfile, stats: StatsContext):
        self.profile = profile
        self.stats = stats
        #: node -> cost (nodes hash by identity).
        self.costs: Dict["PhysicalPlan", PlanCost] = {}
        self.selectivities = Selectivities(stats)
        self.predicate = self.selectivities.predicate


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
        chain = _scan_chain(self)
        if chain is None:
            return self.rows_columnar(ctx)
        return _read_whole(chain, ctx, windows)

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


def _is_inner_join(node: PhysicalPlan) -> bool:
    return isinstance(node, (HashJoin, NestedLoopJoin)) and not node.outer


def _relations(node: PhysicalPlan) -> frozenset:
    """The bindings *node* brings to an inner join's ``_relation_set``
    (``Selectivities.rows``' key): an inner join's own, any other node's
    first column's."""
    if _is_inner_join(node):
        return node._relation_set
    return frozenset((node.output_schema.columns[0].table,))


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


def _scan_chain(node: PhysicalPlan) -> Optional[List[PhysicalPlan]]:
    """A ``SeqScan`` under zero or more ``Filter``s, scan first; None for
    any other *node*."""
    chain = [node]
    while isinstance(chain[-1], Filter):
        chain.append(chain[-1].child)
    return chain[::-1] if isinstance(chain[-1], SeqScan) else None


def _read_whole(
    chain: Sequence["PhysicalPlan"], ctx: ExecutionContext, windows: bool
) -> Iterator[ColumnBatch]:
    """A ``SeqScan`` (``chain[0]``) and the ``Filter``s above it as one pass:
    the survivors of each node's conjuncts in turn, as one batch (or its
    ``_windows``), charged and profiled by ``_whole_run``."""
    run = _whole_run(chain, ctx, None)
    batch, _script = next(run)
    try:
        yield from _windows(batch, ctx.batch_size) if windows else [batch] if batch is not None else []
    finally:
        next(run, None)


def _whole_run(
    chain: Sequence["PhysicalPlan"], ctx: ExecutionContext, script: Optional[Tuple[Any, ...]]
) -> Iterator[Tuple[Optional[ColumnBatch], Tuple[Any, ...]]]:
    """One pass over *chain*, charged and profiled as its nodes' streams,
    at the same meter readings: windows open, pages, emits; it yields
    (survivors, script), then charges rows x ``_per_row`` and closes the
    windows.  Given an earlier pass's script (pages charge, rows into each
    node, profiled windows) it reads nothing (docs/execution.md, "The spine")."""
    meter = ctx.meter
    profiler = ctx.profiler
    replays = []
    if profiler is not NULL_PROFILER:
        # Opened outermost first, as the streams' first next() calls nest.
        replays = [profiler.fused(node, meter) for node in chain[::-1]][::-1]
    batch = None
    if script is None:
        heap = ctx.storage.table(chain[0].table.name)
        table_cols = heap.columnar()
        n, size = table_cols.n_rows, ctx.batch_size
        batch = ColumnBatch(table_cols.cols, n, None) if n else None
        rows, emits = [n], []
        for node in chain:
            if batch is not None:
                batch = _narrowed(batch, node._kernels)
            rows.append(len(batch) if batch is not None else 0)
            if replays:
                windows = _windows(batch, size)
                emits.append([(len(w), min(size, n - w.sel[0] + w.sel[0] % size)) for w in windows])
        script = (chain[0]._pages(heap), rows, emits)
    pages, rows, emits = script
    meter.io_ms += pages
    for replay, views in zip(replays, emits):
        for view in views:
            replay.emit(*view)
    yield batch, script
    for level, node in enumerate(chain):
        meter.cpu_ms += rows[level] * node._per_row
        if replays:
            replays[level].finish()


def _windows(batch: Optional[ColumnBatch], size: int) -> List[ColumnBatch]:
    """*batch* as views of its *size*-row windows: a windowed stream's."""
    rows = batch.selected() if batch is not None else []
    return [batch.with_sel(list(w)) for _, w in groupby(rows, lambda i: i // size)]


def _predicate_sql(predicate: Optional[Expression]) -> str:
    return predicate.sql() if predicate is not None else ""


def _equality_probe(part: Expression) -> Optional[Tuple[str, Literal]]:
    """Match ``col = literal`` (either orientation) for index probing."""
    if not isinstance(part, Comparison) or part.op != "=":
        return None
    if isinstance(part.left, ColumnRef) and isinstance(part.right, Literal):
        return part.left.name, part.right
    if isinstance(part.right, ColumnRef) and isinstance(part.left, Literal):
        return part.right.name, part.left
    return None


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
        self._per_row = CPU_TUPLE_COST + _count_operators(predicate) * CPU_OPERATOR_COST

    def _cost(self, estimator: CostEstimator) -> PlanCost:
        profile = estimator.profile
        rows_in = self.table.stats.row_count
        width = self.output_schema.row_width_bytes()
        rows_out = max(rows_in * estimator.predicate(self.predicate), 0.0)
        io = profile.io_ms(pages_for(rows_in, width) * SEQ_PAGE_COST)
        cpu = profile.cpu_ms(rows_in * self._per_row)
        total = STARTUP_COST + io + cpu
        first = STARTUP_COST + (io + cpu) / max(rows_out, 1.0)
        return PlanCost(
            first_tuple=min(first, total),
            total=total,
            rows=rows_out,
            width_bytes=width,
        )

    def _pages(self, heap: HeapTable) -> float:
        """The charge for reading the stored table *heap*'s pages."""
        return pages_for(len(heap), self.output_schema.row_width_bytes()) * SEQ_PAGE_COST

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        heap = ctx.storage.table(self.table.name)
        ctx.meter.io_ms += self._pages(heap)
        table_cols = heap.columnar()
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
    def _kernels(self) -> List[Callable[[ColumnBatch], List[int]]]:
        return [selection_kernel(c, self.output_schema) for c in conjuncts(self.predicate)]

    def describe(self) -> str:
        pred = _predicate_sql(self.predicate)
        suffix = f" WHERE {pred}" if pred else ""
        return f"SeqScan({self.table.name} AS {self.binding}{suffix})"


class IndexScan(PhysicalPlan):
    """Equality probe into a hash index: conjunct *probe* of the local *predicate*
    is ``column = literal``, the rest filters.  Its rows are a ``SeqScan``'s."""

    def __init__(
        self, table: TableDef, binding: str, predicate: Expression, probe: int
    ):
        parts = conjuncts(predicate)
        matched = _equality_probe(parts[probe])
        if matched is None:
            raise ExecutionError("IndexScan requires a column = literal probe")
        self.table = table
        self.binding = binding
        self.predicate = predicate
        self.column = matched[0].rpartition(".")[2]
        self.value = matched[1]
        self.residual = combine_conjuncts(parts[:probe] + parts[probe + 1 :])
        self.output_schema = table.schema.rename_table(binding)
        self._per_row = CPU_TUPLE_COST + _count_operators(self.residual) * CPU_OPERATOR_COST

    def _cost(self, estimator: CostEstimator) -> PlanCost:
        profile = estimator.profile
        stats = self.table.stats.for_column(self.column)
        rows_in = self.table.stats.row_count
        n_distinct = stats.n_distinct if stats else max(rows_in, 1)
        matched = rows_in / max(n_distinct, 1)
        rows_out = max(rows_in * estimator.predicate(self.predicate), 0.0)
        width = self.output_schema.row_width_bytes()
        probe = profile.io_ms(INDEX_PROBE_COST)
        cpu = profile.cpu_ms(matched * self._per_row)
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
        rids = index.lookup(self.value.value)
        table_cols = heap.columnar()
        size = ctx.batch_size
        fetched = (
            table_cols.take_batch(list(rids[start : start + size]))
            for start in range(0, len(rids), size)
        )
        for matched in _metered(fetched, meter, self._per_row):
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
        self._per_row = _count_operators(predicate) * CPU_OPERATOR_COST

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        rows_out = max(child.rows * estimator.predicate(self.predicate), 0.0)
        cpu = profile.cpu_ms(child.rows * self._per_row)
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
        self._per_row = len(self.items) * CPU_OPERATOR_COST

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _cost(self, estimator: CostEstimator, child: PlanCost) -> PlanCost:
        profile = estimator.profile
        cpu = profile.cpu_ms(child.rows * self._per_row)
        width = self.output_schema.row_width_bytes()
        return PlanCost(
            first_tuple=child.first_tuple,
            total=child.total + cpu,
            rows=child.rows,
            width_bytes=width,
        )

    @cached_property
    def _plans(self) -> List[Tuple[int, Optional[Callable[[ColumnBatch], List[Any]]]]]:
        """Per (bound, so star-free) item, its child column or kernel."""
        child_schema = self.child.output_schema
        return [
            (child_schema.index_of(item.expr.name), None)
            if isinstance(item.expr, ColumnRef)
            else (-1, value_kernel(item.expr, child_schema))
            for item in self.items
        ]

    def _rows_columnar(self, ctx: ExecutionContext) -> Iterator[ColumnBatch]:
        # Plain column references pass the underlying column straight
        # through (narrowed to the selection); computed items run a
        # generated kernel into a value column.
        plans = self._plans
        child = self.child.rows_columnar(ctx)
        for batch in _metered(child, ctx.meter, self._per_row):
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
        self._per_pair = max(_count_operators(condition), 1) * CPU_OPERATOR_COST
        if not outer:
            self._relation_set = _relations(left) | _relations(right)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _cost(
        self, estimator: CostEstimator, left: PlanCost, right: PlanCost
    ) -> PlanCost:
        profile = estimator.profile
        pairs = left.rows * right.rows
        if self.outer:
            rows_out = max(pairs * estimator.predicate(self.condition), left.rows)
        else:
            rows_out = estimator.selectivities.rows(self, estimator)
        cpu = profile.cpu_ms(pairs * self._per_pair + right.rows * MATERIALIZE_TUPLE_COST)
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
        inner = [row for batch in self.right.rows_columnar(ctx) for row in batch.materialize()]
        meter.cpu_ms += len(inner) * MATERIALIZE_TUPLE_COST
        condition = (
            self.condition.compile(self.output_schema)
            if self.condition is not None
            else None
        )
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
            meter.cpu_ms += pairs * self._per_pair

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
        if not outer:
            self._relation_set = _relations(left) | _relations(right)

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _cost(
        self, estimator: CostEstimator, left: PlanCost, right: PlanCost
    ) -> PlanCost:
        profile = estimator.profile
        if self.outer:
            selectivity = 1.0
            for key in zip(self.left_keys, self.right_keys):
                selectivity *= equijoin_selectivity(*map(estimator.stats.column, key))
            rows_out = left.rows * right.rows * selectivity
            rows_out = max(rows_out * estimator.predicate(self.residual), left.rows)
        else:
            rows_out = estimator.selectivities.rows(self, estimator)
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
        sources: List[Expression] = [item.expr for item in self.items]
        if having is not None:
            sources.append(having)
        for source in sources:
            for node in walk(source):
                if isinstance(node, AggregateCall) and id(node) not in (
                    self._agg_positions
                ):
                    self._agg_positions[id(node)] = len(self._agg_calls)
                    self._agg_calls.append(node)
        self._per_update = max(len(self._agg_calls), 1) * AGG_UPDATE_COST
        self._per_group = len(self.items) * CPU_OPERATOR_COST

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
        cpu = profile.cpu_ms(child.rows * self._per_update + groups * self._per_group)
        total = child.total + cpu
        width = self.output_schema.row_width_bytes()
        # Aggregation is blocking: nothing is emitted before the input is
        # consumed, so first-tuple is essentially total minus emission.
        emit = profile.cpu_ms(groups * self._per_group)
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
        meter.cpu_ms += consumed * self._per_update
        groups = len(group_keys)
        meter.cpu_ms += groups * self._per_group
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
