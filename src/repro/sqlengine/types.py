"""Value and schema types for the relational engine.

The engine stores rows as plain Python tuples.  A :class:`Schema` describes
the columns of a row stream and provides name-based resolution; columns are
addressed positionally during execution so that the hot loops never perform
string lookups.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Optional, Sequence, Tuple


class SqlError(Exception):
    """Base class for every engine-raised error."""


class SchemaError(SqlError):
    """Raised for unknown/ambiguous columns and schema mismatches."""


class TypeMismatchError(SqlError):
    """Raised when an operation is applied to incompatible value types."""


class ColumnType(enum.Enum):
    """Supported SQL column types.

    The engine is deliberately small: integers, floats, strings and
    booleans cover everything the paper's workload (numeric joins,
    range predicates, aggregation) requires.
    """

    INT = "INT"
    FLOAT = "FLOAT"
    STR = "STR"
    BOOL = "BOOL"

    def accepts(self, value: Any) -> bool:
        """Return True if *value* is storable in a column of this type."""
        if value is None:
            return True
        if self is ColumnType.FLOAT:
            # Integers are silently widened to float columns.
            return isinstance(value, (int, float)) and not isinstance(value, bool)
        if self is ColumnType.INT:
            return isinstance(value, int) and not isinstance(value, bool)
        if self is ColumnType.BOOL:
            return isinstance(value, bool)
        return isinstance(value, str)

    def coerce(self, value: Any) -> Any:
        """Coerce *value* for storage, raising on incompatible input."""
        if value is None:
            return None
        if not self.accepts(value):
            raise TypeMismatchError(
                f"value {value!r} is not compatible with column type {self.value}"
            )
        if self is ColumnType.FLOAT:
            return float(value)
        return value


#: Bytes charged per value when estimating transfer sizes.  String columns
#: additionally account for :data:`AVG_STR_LEN_BYTES`.
TYPE_WIDTH_BYTES = {
    ColumnType.INT: 8,
    ColumnType.FLOAT: 8,
    ColumnType.BOOL: 1,
    ColumnType.STR: 24,
}
#: Payload charged per string value, whatever ``ColumnStats.avg_str_len``
#: measured (a known simplification, see docs/cost_model.md).
AVG_STR_LEN_BYTES = 16.0


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally qualified by a table alias."""

    name: str
    ctype: ColumnType
    table: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def with_table(self, table: Optional[str]) -> "Column":
        return Column(self.name, self.ctype, table)

    def width_bytes(self) -> int:
        return TYPE_WIDTH_BYTES[self.ctype]


class Schema:
    """An ordered collection of columns with name resolution.

    Resolution accepts either bare names (``price``) or qualified names
    (``orders.price``).  A bare name that matches columns from more than
    one table is ambiguous and raises :class:`SchemaError`.

    Building one is free: the optimizer derives a schema for every join
    it considers and resolves names on the few it keeps, so the name
    indexes are filled by the first :meth:`index_of` and the row width
    by the first :meth:`row_width_bytes`.  A schema is never changed
    after construction, so :meth:`rename_table` may hand the same copy
    to every caller.
    """

    __slots__ = ("columns", "_by_qualified", "_by_bare", "_row_width", "_renamed")

    def __init__(self, columns: Sequence[Column]):
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_qualified: Optional[dict] = None
        self._by_bare: Optional[dict] = None
        self._row_width: Optional[float] = None
        #: (table, copy) of the latest :meth:`rename_table`.
        self._renamed: Optional[Tuple[str, "Schema"]] = None

    def _index_names(self) -> None:
        by_qualified, by_bare = {}, {}
        for idx, col in enumerate(self.columns):
            if col.table:
                by_qualified.setdefault(f"{col.table}.{col.name}", idx)
            by_bare.setdefault(col.name, []).append(idx)
        self._by_qualified, self._by_bare = by_qualified, by_bare

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.qualified_name}:{c.ctype.value}" for c in self.columns)
        return f"Schema({cols})"

    def _find(self, name: str) -> Optional[int]:
        """Index of the one column *name* resolves to, if there is one."""
        if self._by_bare is None:
            self._index_names()
        if "." not in name:
            candidates = self._by_bare.get(name, ())
            return candidates[0] if len(candidates) == 1 else None
        idx = self._by_qualified.get(name)
        if idx is None:
            # Fall back to bare resolution of the trailing component so
            # that single-table fragments can use stale qualifiers.
            table, _, bare = name.rpartition(".")
            candidates = [
                i
                for i in self._by_bare.get(bare, ())
                if self.columns[i].table in (None, table)
            ]
            if len(candidates) == 1:
                idx = candidates[0]
        return idx

    def index_of(self, name: str) -> int:
        """Resolve *name* to a column index.

        Raises :class:`SchemaError` if the name is unknown or ambiguous.
        """
        idx = self._find(name)
        if idx is None:
            candidates = self._by_bare.get(name, ())  # a bare name's only
            if not candidates:
                raise SchemaError(f"unknown column {name!r}")
            tables = sorted({self.columns[i].table or "?" for i in candidates})
            raise SchemaError(
                f"ambiguous column {name!r} (present in {', '.join(tables)})"
            )
        return idx

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        return self._find(name) is not None

    def concat(self, other: "Schema") -> "Schema":
        """Schema of the join of two row streams (left columns first)."""
        return Schema(self.columns + other.columns)

    def rename_table(self, table: str) -> "Schema":
        """Return a copy with every column re-qualified to *table*.

        The latest copy is kept, name indexes included (one copy, whatever
        names are asked for): statement after statement binds a catalog
        table under the same alias.
        """
        renamed = self._renamed
        if renamed is None or renamed[0] != table:
            renamed = self._renamed = table, Schema(
                tuple(c.with_table(table) for c in self.columns)
            )
        return renamed[1]

    def row_width_bytes(self) -> float:
        """Approximate stored/transferred width of one row, in bytes."""
        width = self._row_width
        if width is None:
            width = 0.0
            for col in self.columns:
                if col.ctype is ColumnType.STR:
                    width += TYPE_WIDTH_BYTES[ColumnType.STR] + AVG_STR_LEN_BYTES
                else:
                    width += col.width_bytes()
            self._row_width = width
        return width

    def validate_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Coerce and validate *row* against this schema."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.columns)} columns"
            )
        return tuple(
            col.ctype.coerce(value) for col, value in zip(self.columns, row)
        )


Row = Tuple[Any, ...]


def rows_equal_unordered(a: Iterable[Row], b: Iterable[Row]) -> bool:
    """Multiset equality of two row streams (test helper, O(n log n))."""
    key = lambda row: tuple((v is None, v) for v in row)  # noqa: E731
    return sorted(a, key=key) == sorted(b, key=key)


def rows_close_unordered(a: Iterable[Row], b: Iterable[Row]) -> bool:
    """Multiset equality tolerant of float summation-order differences
    (relative and absolute tolerance 1e-9).

    Aggregates computed along different execution paths (e.g. a local
    plan vs an II-side merge) accumulate floats in different orders and
    may differ in the last bits; exact comparison is the wrong tool.
    """
    import math

    key = lambda row: tuple((v is None, v) for v in row)  # noqa: E731
    rows_a = sorted(a, key=key)
    rows_b = sorted(b, key=key)
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a, rows_b):
        if len(row_a) != len(row_b):
            return False
        for va, vb in zip(row_a, row_b):
            if isinstance(va, float) and isinstance(vb, float):
                if not math.isclose(va, vb, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif va != vb:
                return False
    return True
