"""Cost model: selectivity estimation and operator costing.

Cost is expressed in **milliseconds on a reference machine**; a server's
hardware profile scales it (DB2's cost model likewise folds CPU power and
I/O characteristics of the remote system into its estimates).  The model
exposes exactly the parameter set the paper names in Section 3: *first
tuple cost*, *next tuple cost* and *cardinality*, with
``total = first_tuple + next_tuple * cardinality``.

What the model deliberately does NOT see: runtime load or current network
latency.  That gap is the raison d'être of the Query Cost Calibrator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

from .catalog import ColumnStats, TableStats
from .expressions import (
    And,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)

#: Default selectivity when statistics cannot resolve a predicate.
DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_SELECTIVITY = 0.25

PAGE_SIZE_BYTES = 8192.0

# The cost model's unit costs (reference-machine ms).  They are fixed:
# QCC calibrates by multiplying estimates, never by moving these.
CPU_TUPLE_COST = 0.0005
CPU_OPERATOR_COST = 0.0002
SEQ_PAGE_COST = 1.50
HASH_BUILD_COST = 0.0015
HASH_PROBE_COST = 0.0008
SORT_COMPARE_COST = 0.0004
AGG_UPDATE_COST = 0.0020
MATERIALIZE_TUPLE_COST = 0.0005


@dataclass(frozen=True)
class PlanCost:
    """The cost triple DB2 II exchanges with wrappers.

    ``first_tuple``: time until the first result tuple is available.
    ``total``: time until the last tuple is produced.
    ``rows``: estimated output cardinality.
    ``width_bytes``: estimated bytes per output row (for transfer costing).
    """

    first_tuple: float
    total: float
    rows: float
    width_bytes: float = 64.0

    @property
    def next_tuple(self) -> float:
        """Per-tuple cost after the first (paper's 'next tuple cost')."""
        if self.rows <= 1.0:
            return 0.0
        return max(0.0, (self.total - self.first_tuple) / (self.rows - 1.0))

    def scaled(self, factor: float) -> "PlanCost":
        """Multiply the time components by *factor* (calibration)."""
        return PlanCost(
            first_tuple=self.first_tuple * factor,
            total=self.total * factor,
            rows=self.rows,
            width_bytes=self.width_bytes,
        )


INFINITE_COST = PlanCost(
    first_tuple=math.inf, total=math.inf, rows=0.0, width_bytes=0.0
)


StatsLookup = Callable[[str], Optional[ColumnStats]]


class StatsContext:
    """Resolves qualified column names to statistics for selectivity.

    *relation_stats* maps a binding name (table alias in the query) to the
    TableStats of the underlying table.
    """

    def __init__(self, relation_stats: Mapping[str, TableStats]):
        self._stats = dict(relation_stats)

    def column(self, qualified: str) -> Optional[ColumnStats]:
        binding, _, bare = qualified.rpartition(".")
        if binding:
            table_stats = self._stats.get(binding)
            return table_stats.for_column(bare) if table_stats else None
        for table_stats in self._stats.values():
            found = table_stats.for_column(bare)
            if found is not None:
                return found
        return None


def estimate_selectivity(
    expr: Optional[Expression], stats: StatsContext
) -> float:
    """Fraction of rows satisfying *expr* (clamped to (0, 1])."""
    if expr is None:
        return 1.0
    result = _selectivity(expr, stats)
    return min(1.0, max(1e-6, result))


def _selectivity(expr: Expression, stats: StatsContext) -> float:
    if isinstance(expr, And):
        return _selectivity(expr.left, stats) * _selectivity(expr.right, stats)
    if isinstance(expr, Or):
        a = _selectivity(expr.left, stats)
        b = _selectivity(expr.right, stats)
        return a + b - a * b
    if isinstance(expr, Not):
        return 1.0 - _selectivity(expr.operand, stats)
    if isinstance(expr, IsNull):
        base = _null_fraction(expr.operand, stats)
        return 1.0 - base if expr.negated else base
    if isinstance(expr, Comparison):
        return _comparison_selectivity(expr, stats)
    if isinstance(expr, InList):
        base = _in_list_selectivity(expr, stats)
        return 1.0 - base if expr.negated else base
    if isinstance(expr, Like):
        base = _like_selectivity(expr)
        return 1.0 - base if expr.negated else base
    if isinstance(expr, Literal):
        if expr.value is True:
            return 1.0
        if expr.value in (False, None):
            return 0.0
    return DEFAULT_SELECTIVITY


def _null_fraction(expr: Expression, stats: StatsContext) -> float:
    if isinstance(expr, ColumnRef):
        cs = stats.column(expr.name)
        if cs is not None:
            return cs.null_fraction
    return 0.01


def _in_list_selectivity(expr: InList, stats: StatsContext) -> float:
    """Each member behaves like one equality probe."""
    if isinstance(expr.operand, ColumnRef):
        cs = stats.column(expr.operand.name)
        if cs is not None:
            per_value = 1.0 / max(cs.n_distinct, 1)
            return min(1.0, len(set(expr.values)) * per_value)
    return min(1.0, len(set(expr.values)) * DEFAULT_EQ_SELECTIVITY)


def _like_selectivity(expr: Like) -> float:
    """Heuristic: exact patterns behave like equality; a leading
    wildcard defeats any prefix reasoning; otherwise every literal
    character narrows the match."""
    pattern = expr.pattern
    if "%" not in pattern and "_" not in pattern:
        return DEFAULT_EQ_SELECTIVITY
    if pattern.startswith("%"):
        return DEFAULT_RANGE_SELECTIVITY
    literal_chars = sum(1 for c in pattern if c not in "%_")
    return max(0.001, DEFAULT_RANGE_SELECTIVITY * (0.5 ** min(literal_chars, 6)))


def _comparison_selectivity(expr: Comparison, stats: StatsContext) -> float:
    left, right = expr.left, expr.right
    # Normalise to column-op-literal orientation when possible.
    if isinstance(right, ColumnRef) and isinstance(left, Literal):
        flipped = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(
            expr.op, expr.op
        )
        return _comparison_selectivity(Comparison(flipped, right, left), stats)

    if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
        ls = stats.column(left.name)
        rs = stats.column(right.name)
        if expr.op == "=":
            nd = max(
                ls.n_distinct if ls else 1, rs.n_distinct if rs else 1, 1
            )
            return 1.0 / nd
        return DEFAULT_RANGE_SELECTIVITY

    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        cs = stats.column(left.name)
        if expr.op == "=":
            if cs is None:
                return DEFAULT_EQ_SELECTIVITY
            return 1.0 / max(cs.n_distinct, 1)
        if expr.op in ("!=", "<>"):
            if cs is None:
                return 1.0 - DEFAULT_EQ_SELECTIVITY
            return 1.0 - 1.0 / max(cs.n_distinct, 1)
        return _range_selectivity(cs, expr.op, right.value)

    return DEFAULT_SELECTIVITY


def _range_selectivity(
    cs: Optional[ColumnStats], op: str, value: Any
) -> float:
    """Linear interpolation over the column's [min, max] interval."""
    if cs is None or not isinstance(value, (int, float)):
        return DEFAULT_RANGE_SELECTIVITY
    span = cs.value_range()
    if span is None or span <= 0:
        return DEFAULT_RANGE_SELECTIVITY
    assert cs.min_value is not None
    position = (float(value) - float(cs.min_value)) / span
    position = min(1.0, max(0.0, position))
    if op in ("<", "<="):
        return max(1e-6, position)
    return max(1e-6, 1.0 - position)


def equijoin_selectivity(
    left_col: Optional[ColumnStats], right_col: Optional[ColumnStats]
) -> float:
    """Classic System-R equijoin selectivity: 1 / max(ndv_l, ndv_r)."""
    nd_left = left_col.n_distinct if left_col else 1
    nd_right = right_col.n_distinct if right_col else 1
    return 1.0 / max(nd_left, nd_right, 1)


def pages_for(rows: float, width_bytes: float) -> float:
    """Number of pages occupied by *rows* of *width_bytes* each."""
    if rows <= 0:
        return 0.0
    per_page = max(1.0, PAGE_SIZE_BYTES / max(width_bytes, 1.0))
    return max(1.0, rows / per_page)


@dataclass(frozen=True)
class ServerProfile:
    """Hardware characteristics of one server, known to the optimizer.

    ``cpu_speed`` > 1 means faster-than-reference CPU (costs shrink);
    ``io_speed`` likewise for the I/O subsystem.  DB2's federated cost
    model includes remote system configuration, so estimates legitimately
    account for these static factors — but never for load.
    """

    name: str = "reference"
    cpu_speed: float = 1.0
    io_speed: float = 1.0

    def cpu_ms(self, reference_ms: float) -> float:
        return reference_ms / self.cpu_speed

    def io_ms(self, reference_ms: float) -> float:
        return reference_ms / self.io_speed


REFERENCE_PROFILE = ServerProfile()
