"""In-memory storage: heap tables, each a row list and its columnar projection."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from .catalog import Catalog, TableDef, collect_stats
from .columnar import TableColumns
from .types import Row, Schema, SqlError


class StorageError(SqlError):
    """Raised for storage-level misuse (unknown table, bad rows)."""


class HeapTable:
    """An append-only heap of tuples."""

    def __init__(self, name: str, schema: Schema):
        self.name = name
        self.schema = schema
        self.rows: List[Row] = []
        # Data version for the columnar projection cache: bumped on any
        # mutation, so a cached TableColumns is valid iff versions match.
        self._version = 0
        self._columnar: Optional[Tuple[int, TableColumns]] = None

    def insert(self, row: Sequence[Any]) -> None:
        self.insert_many((row,))

    def columnar(self) -> TableColumns:
        """The columnar projection of this table, cached per version.

        Each column is built when a kernel first reads it after a
        mutation; every later scan (any query, any batch) reuses it.
        """
        cached = self._columnar
        if cached is not None and cached[0] == self._version:
            return cached[1]
        columns = TableColumns(self.rows, self.schema)
        self._columnar = (self._version, columns)
        return columns

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append *rows*: all validated first (a bad row inserts none),
        then one version bump."""
        validated = self.schema.validate_rows(list(rows))
        if validated:
            self.rows.extend(validated)
            self._version += 1
        return len(validated)

    def load_copy(self, source: "HeapTable") -> int:
        """Replace this table's rows with *source*'s.

        *source* validated its tuples against an equal schema, and
        tuples are immutable, so this table takes them as they are in a
        list of its own.  Later writes to either table stay in that table.
        """
        if source.schema != self.schema:
            raise StorageError(
                f"cannot copy {source.name!r}: its schema differs from "
                f"{self.name!r}'s"
            )
        self.rows = list(source.rows)
        self._version += 1
        return len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def update_rows(
        self,
        predicate: Optional[Any],
        assign: Any,
    ) -> int:
        """Update rows matching *predicate* via *assign* (row -> row).

        ``predicate`` is a compiled row predicate or None (all rows);
        ``assign`` maps an old row tuple to its replacement.  Every
        replacement is built and validated before any is written, so a
        failing one changes nothing.
        Returns the number of rows changed.
        """
        validate = self.schema.validate_row
        replacements = [
            (rid, validate(assign(row)))
            for rid, row in enumerate(self.rows)
            if predicate is None or predicate(row) is True
        ]
        if replacements:
            rows = self.rows
            for rid, row in replacements:
                rows[rid] = row
            self._version += 1
        return len(replacements)

    def delete_rows(self, predicate: Optional[Any]) -> int:
        """Delete rows matching *predicate* (all rows when None)."""
        before = len(self.rows)
        if predicate is None:
            self.rows.clear()
        else:
            self.rows = [
                row for row in self.rows if predicate(row) is not True
            ]
        deleted = before - len(self.rows)
        if deleted:
            self._version += 1
        return deleted


class KeptBuilds(dict):
    """Hash-join builds kept across queries (``spine._built``): key -> build;
    their ``rows``; ``clock``, the sum of the tables' versions at the last sweep."""

    rows = 0
    clock = -1


class StorageManager:
    """Owns the heap tables of one database instance and keeps the
    catalog's definitions in sync with physical state."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self._tables: Dict[str, HeapTable] = {}
        self.builds = KeptBuilds()

    def create_table(self, name: str, schema: Schema) -> HeapTable:
        key = name.lower()
        if key in self._tables:
            raise StorageError(f"table {name!r} already exists")
        qualified = schema.rename_table(name)
        table = HeapTable(name, qualified)
        self._tables[key] = table
        self.catalog.register(
            TableDef(name=name, schema=qualified, stats=collect_stats(qualified, []))
        )
        return table

    def table(self, name: str) -> HeapTable:
        table = self._tables.get(name.lower())
        if table is None:
            raise StorageError(f"unknown table {name!r}")
        return table

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def analyze(self, name: Optional[str] = None) -> None:
        """Refresh catalog statistics from physical data (RUNSTATS)."""
        names = [name] if name else list(self._tables)
        for table_name in names:
            table = self.table(table_name)
            self.catalog.update_stats(
                table.name, collect_stats(table.schema, table.rows)
            )

    def load_rows(self, name: str, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-insert rows and refresh statistics."""
        table = self.table(name)
        count = table.insert_many(rows)
        self.analyze(name)
        return count

    def load_copy(self, name: str, source: "StorageManager") -> int:
        """Load table *name* as a copy of *source*'s table of that name
        (:meth:`HeapTable.load_copy`).  The catalog registers *source*'s
        definition, statistics included: neither catalog mutates it, so
        the two share it until either registers another."""
        count = self.table(name).load_copy(source.table(name))
        self.catalog.adopt(source.catalog.lookup(name))
        return count
