"""Catalog: table definitions and optimizer statistics.

The catalog is what the optimizer sees.  Crucially for this reproduction it
is a *static* snapshot: statistics describe the data, never the runtime
load or network conditions — exactly the blindness of the DB2 II cost model
that the Query Cost Calibrator compensates for.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .types import ColumnType, Row, Schema, SqlError


class CatalogError(SqlError):
    """Raised for unknown tables, duplicate registrations, etc."""


@dataclass(frozen=True)
class ColumnStats:
    """Single-column statistics used for selectivity estimation."""

    n_distinct: int
    min_value: Optional[Any]
    max_value: Optional[Any]
    null_fraction: float = 0.0
    avg_str_len: float = 16.0

    def value_range(self) -> Optional[float]:
        """Numeric width of the [min, max] interval, or None."""
        if isinstance(self.min_value, (int, float)) and isinstance(
            self.max_value, (int, float)
        ):
            return float(self.max_value) - float(self.min_value)
        return None


@dataclass
class TableStats:
    """Table-level statistics snapshot."""

    row_count: int
    column_stats: Dict[str, ColumnStats] = field(default_factory=dict)

    def for_column(self, name: str) -> Optional[ColumnStats]:
        bare = name.rpartition(".")[2]
        return self.column_stats.get(bare)

    def scaled(self, factor: float) -> "TableStats":
        """Stats for a filtered subset of the table (cardinality scaled)."""
        rows = max(1, int(round(self.row_count * factor)))
        scaled_cols = {
            name: ColumnStats(
                n_distinct=max(1, min(cs.n_distinct, rows)),
                min_value=cs.min_value,
                max_value=cs.max_value,
                null_fraction=cs.null_fraction,
                avg_str_len=cs.avg_str_len,
            )
            for name, cs in self.column_stats.items()
        }
        return TableStats(row_count=rows, column_stats=scaled_cols)


def collect_stats(schema: Schema, rows: Sequence[Row]) -> TableStats:
    """Compute exact statistics over *rows* (what RUNSTATS would do)."""
    n = len(rows)
    column_stats: Dict[str, ColumnStats] = {}
    for idx, col in enumerate(schema.columns):
        values = [row[idx] for row in rows]
        non_null = [v for v in values if v is not None]
        distinct = len(set(non_null))
        null_frac = (n - len(non_null)) / n if n else 0.0
        if non_null:
            min_v, max_v = min(non_null), max(non_null)
        else:
            min_v = max_v = None
        if col.ctype is ColumnType.STR and non_null:
            avg_len = sum(len(v) for v in non_null) / len(non_null)
        else:
            avg_len = 16.0
        column_stats[col.name] = ColumnStats(
            n_distinct=max(distinct, 1),
            min_value=min_v,
            max_value=max_v,
            null_fraction=null_frac,
            avg_str_len=avg_len,
        )
    return TableStats(row_count=n, column_stats=column_stats)


@dataclass(frozen=True)
class IndexDef:
    """A single-column hash index definition."""

    table: str
    column: str

    @property
    def name(self) -> str:
        return f"idx_{self.table}_{self.column}"


@dataclass
class TableDef:
    """A table registered in the catalog."""

    name: str
    schema: Schema
    stats: TableStats
    indexes: Tuple[IndexDef, ...] = ()

    def has_index_on(self, column: str) -> bool:
        bare = column.rpartition(".")[2]
        return any(ix.column == bare for ix in self.indexes)


class Catalog:
    """Registry of table definitions for one database instance.

    A catalog may be *detached* from storage (a statistics-only clone, as
    used by QCC's simulated federated system for what-if planning); the
    interface is identical either way.
    """

    def __init__(self) -> None:
        self._tables: Dict[str, TableDef] = {}
        #: Bumped by every mutation an optimizer can see; a plan is valid
        #: for the version it was planned under.
        self.version = 0

    def register(self, table: TableDef) -> None:
        key = table.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {table.name!r} already registered")
        self._tables[key] = table
        self.version += 1

    def lookup(self, name: str) -> TableDef:
        table = self._tables.get(name.lower())
        if table is None:
            raise CatalogError(f"unknown table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def table_names(self) -> List[str]:
        return sorted(t.name for t in self._tables.values())

    def __iter__(self) -> Iterable[TableDef]:
        return iter(self._tables.values())

    def update_stats(self, name: str, stats: TableStats) -> None:
        self._replace(self.lookup(name), stats=stats)

    def add_index(self, name: str, column: str) -> None:
        """Record a single-column index on *name* (storage builds it)."""
        table = self.lookup(name)
        bare = column.rpartition(".")[2]
        self._replace(table, indexes=table.indexes + (IndexDef(name, bare),))

    def _replace(self, table: TableDef, **changes: Any) -> None:
        """Register a changed copy of the registered *table*.

        A registered ``TableDef`` is never mutated: plans and bound
        blocks hold the definition they were planned over, and other
        databases with equal content may serve those plans from their
        statement caches (``Database.explain``).  Re-costing them must
        read what they were planned under, not this catalog's later
        statistics.
        """
        self._tables[table.name.lower()] = replace(table, **changes)
        self.version += 1

    def content(self) -> Tuple[TableDef, ...]:
        """Everything an optimizer can read here — every table's name,
        schema, statistics and indexes — for comparison with ``==``."""
        return tuple(table for _, table in sorted(self._tables.items()))

    def stats_only_clone(self) -> "Catalog":
        """A copy carrying schemas and statistics but no storage binding.

        This is the 'simulated catalog and virtual tables' of the paper's
        Section 2: it lets the what-if planner cost plans for data it does
        not hold.
        """
        clone = Catalog()
        for table in self._tables.values():
            clone.register(
                TableDef(
                    name=table.name,
                    schema=table.schema,
                    stats=TableStats(
                        row_count=table.stats.row_count,
                        column_stats=dict(table.stats.column_stats),
                    ),
                    indexes=table.indexes,
                )
            )
        return clone
