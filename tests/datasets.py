"""Per-server sample databases built the way a test needs them.

A test that wants a placement of its own builds its databases here and
hands them to ``build_federation(prebuilt_databases=)``; the
degenerate-data tests pass each table's generated rows through a
function first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.harness import DEFAULT_SERVER_SPECS
from repro.sqlengine import Database, TableSpec
from repro.workload import TEST_SCALE, WorkloadScale, table_specs

#: (table spec, its generated rows) -> the rows to load instead.
RowsFn = Callable[[TableSpec, List[tuple]], List[tuple]]


def server_databases(
    specs=DEFAULT_SERVER_SPECS,
    placement=None,
    scale: WorkloadScale = TEST_SCALE,
    seed: int = 7,
    rows: Optional[RowsFn] = None,
) -> Dict[str, Database]:
    """One database per server spec, loaded with the sample tables
    *placement* gives it (every table without one)."""
    tables = {table.name: table for table in table_specs(scale)}
    loaded = {}
    for table in tables.values():
        generated = list(table.generate_rows(seed))
        loaded[table.name] = generated if rows is None else rows(table, generated)
    databases = {}
    for spec in specs:
        database = Database(name=spec.name, profile=spec.profile())
        hosted = placement[spec.name] if placement is not None else tables
        for name in hosted:
            table = tables[name]
            database.create_table(name, table.schema())
            database.load_rows(name, loaded[name])
        databases[spec.name] = database
    return databases
