"""Unit tests for heap storage."""

import pytest

from repro.sqlengine import (
    Catalog,
    Column,
    ColumnType,
    Schema,
    SchemaError,
    StorageError,
    StorageManager,
)


def _schema():
    return Schema((Column("id", ColumnType.INT), Column("v", ColumnType.STR)))


@pytest.fixture()
def storage():
    manager = StorageManager(Catalog())
    manager.create_table("t", _schema())
    return manager


class TestHeapTable:
    def test_insert_and_scan(self, storage):
        table = storage.table("t")
        table.insert((1, "a"))
        table.insert((2, "b"))
        assert table.rows == [(1, "a"), (2, "b")]
        assert len(table) == 2

    def test_insert_validates(self, storage):
        with pytest.raises(SchemaError):
            storage.table("t").insert((1,))

    def test_fetch_by_rid(self, storage):
        table = storage.table("t")
        table.insert((1, "a"))
        assert table.rows[0] == (1, "a")

    def test_insert_many_bumps_the_version_once_or_not_at_all(self, storage):
        table = storage.table("t")
        assert table.insert_many([(1, "a"), (2, "b")]) == 2
        assert table._version == 1
        assert table.insert_many([]) == 0
        with pytest.raises(SchemaError):
            table.insert_many([(3, "c"), (4,)])
        assert table.rows == [(1, "a"), (2, "b")] and table._version == 1


class TestStorageManager:
    def test_duplicate_table(self, storage):
        with pytest.raises(StorageError):
            storage.create_table("t", _schema())

    def test_unknown_table(self, storage):
        with pytest.raises(StorageError):
            storage.table("missing")

    def test_a_valid_bulk_load_stores_the_callers_tuples(self, storage):
        rows = [(i, str(i)) for i in range(5)]
        storage.load_rows("t", iter(rows))
        stored = storage.table("t").rows
        assert len(stored) == len(rows)
        assert all(kept is row for kept, row in zip(stored, rows))

    def test_a_load_needing_coercion_stores_validated_tuples(self, storage):
        rows = [(1, "a"), [2, "b"]]
        storage.load_rows("t", rows)
        assert storage.table("t").rows == [(1, "a"), (2, "b")]
        assert type(storage.table("t").rows[1]) is tuple

    def test_load_rows_refreshes_stats(self, storage):
        storage.load_rows("t", [(1, "a"), (2, "b"), (2, "c")])
        stats = storage.catalog.lookup("t").stats
        assert stats.row_count == 3
        assert stats.for_column("id").n_distinct == 2

    def test_schema_qualified_by_table_name(self, storage):
        schema = storage.table("t").schema
        assert schema.columns[0].table == "t"
