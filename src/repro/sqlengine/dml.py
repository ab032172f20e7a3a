"""DML execution: INSERT / UPDATE / DELETE.

The evaluation's "heavy update load" (Section 5.1 step 4) is real work
in this reproduction: update statements execute against the heap, are
metered in the same currency as queries, and — via the induced-load
schedules — heat the server for concurrent query traffic.

Statistics are deliberately *not* refreshed on DML (DB2 needs RUNSTATS
too): a drifting table makes the optimizer's estimates stale, which is
part of the environment QCC is built for.  Call ``analyze`` explicitly
to refresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from .cost import CPU_TUPLE_COST, SEQ_PAGE_COST, pages_for
from .expressions import Expression
from .parser import (
    DeleteStatement,
    InsertStatement,
    UpdateStatement,
)
from .physical import WorkMeter
from .storage import StorageManager
from .types import Schema, SqlError


class DmlError(SqlError):
    """Raised for invalid DML statements."""


@dataclass
class DmlResult:
    """Outcome of one DML statement."""

    rows_affected: int
    meter: WorkMeter


#: Extra CPU charged per modified row (the write and its log record).
_WRITE_ROW_COST_FACTOR = 4.0

#: IO charged per inserted row: a tenth of the one page a row fills.
_INSERT_ROW_IO = SEQ_PAGE_COST * 0.1


def execute_dml(
    statement,
    storage: StorageManager,
) -> DmlResult:
    """Execute an INSERT/UPDATE/DELETE statement against *storage*."""
    if isinstance(statement, InsertStatement):
        return _execute_insert(statement, storage)
    if isinstance(statement, UpdateStatement):
        return _execute_update(statement, storage)
    if isinstance(statement, DeleteStatement):
        return _execute_delete(statement, storage)
    raise DmlError(f"not a DML statement: {type(statement).__name__}")


def _evaluate_constant(expression: Expression) -> Any:
    """Evaluate an expression that must not reference any column."""
    try:
        return expression.compile(_EMPTY_SCHEMA)(())
    except SqlError as exc:
        raise DmlError(
            f"INSERT values must be constants: {expression.sql()}"
        ) from exc


_EMPTY_SCHEMA = Schema(())


def _execute_insert(
    statement: InsertStatement,
    storage: StorageManager,
) -> DmlResult:
    table = storage.table(statement.table)
    schema = table.schema
    meter = WorkMeter()
    positions: Optional[List[int]] = None
    if statement.columns:
        positions = [schema.index_of(c) for c in statement.columns]

    # Every row is evaluated and checked before any is stored: a bad
    # row anywhere in VALUES inserts none (``HeapTable.insert_many``).
    rows = []
    for value_row in statement.rows:
        values = [_evaluate_constant(e) for e in value_row]
        if positions is None:
            if len(values) != len(schema):
                raise DmlError(
                    f"INSERT provides {len(values)} values for "
                    f"{len(schema)} columns"
                )
            row = values
        else:
            if len(values) != len(positions):
                raise DmlError(
                    "INSERT column list and VALUES length differ"
                )
            row = [None] * len(schema)
            for position, value in zip(positions, values):
                row[position] = value
        rows.append(row)
    table.insert_many(rows)
    for _ in rows:
        meter.cpu_ms += CPU_TUPLE_COST * _WRITE_ROW_COST_FACTOR
        meter.io_ms += _INSERT_ROW_IO
    meter.tuples_out = len(statement.rows)
    return DmlResult(rows_affected=len(statement.rows), meter=meter)


def _execute_update(
    statement: UpdateStatement,
    storage: StorageManager,
) -> DmlResult:
    table = storage.table(statement.table)
    schema = table.schema
    meter = WorkMeter()
    predicate = (
        statement.where.compile(schema) if statement.where is not None else None
    )
    targets = [
        (schema.index_of(a.column), a.value.compile(schema))
        for a in statement.assignments
    ]

    def assign(row):
        new_row = list(row)
        for position, value_fn in targets:
            new_row[position] = value_fn(row)
        return new_row

    # Charge the scan (every row is examined) plus per-change cost.
    rows_in = len(table)
    meter.io_ms += pages_for(rows_in, schema.row_width_bytes()) * SEQ_PAGE_COST
    meter.cpu_ms += rows_in * CPU_TUPLE_COST
    changed = table.update_rows(predicate, assign)
    meter.cpu_ms += changed * CPU_TUPLE_COST * _WRITE_ROW_COST_FACTOR
    meter.io_ms += pages_for(changed, schema.row_width_bytes()) * SEQ_PAGE_COST
    meter.tuples_out = changed
    return DmlResult(rows_affected=changed, meter=meter)


def _execute_delete(
    statement: DeleteStatement,
    storage: StorageManager,
) -> DmlResult:
    table = storage.table(statement.table)
    schema = table.schema
    meter = WorkMeter()
    predicate = (
        statement.where.compile(schema) if statement.where is not None else None
    )
    rows_in = len(table)
    meter.io_ms += pages_for(rows_in, schema.row_width_bytes()) * SEQ_PAGE_COST
    meter.cpu_ms += rows_in * CPU_TUPLE_COST
    deleted = table.delete_rows(predicate)
    meter.cpu_ms += deleted * CPU_TUPLE_COST * _WRITE_ROW_COST_FACTOR
    meter.tuples_out = deleted
    return DmlResult(rows_affected=deleted, meter=meter)
