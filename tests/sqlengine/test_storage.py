"""Unit tests for heap storage and hash indexes."""

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
        assert list(table.scan()) == [(1, "a"), (2, "b")]
        assert len(table) == 2

    def test_insert_validates(self, storage):
        with pytest.raises(SchemaError):
            storage.table("t").insert((1,))

    def test_fetch_by_rid(self, storage):
        table = storage.table("t")
        table.insert((1, "a"))
        assert table.fetch(0) == (1, "a")


class TestHashIndex:
    def test_lookup_matches_scan(self, storage):
        table = storage.table("t")
        table.insert_many([(i % 3, str(i)) for i in range(30)])
        index = table.create_index("id")
        for key in (0, 1, 2):
            via_index = sorted(table.fetch(rid) for rid in index.lookup(key))
            via_scan = sorted(row for row in table.scan() if row[0] == key)
            assert via_index == via_scan

    def test_lookup_missing_key(self, storage):
        table = storage.table("t")
        table.create_index("id")
        assert list(table.index_on("id").lookup(99)) == []

    def test_null_keys_not_indexed(self, storage):
        table = storage.table("t")
        table.insert((None, "x"))
        index = table.create_index("id")
        assert len(index) == 0
        assert list(index.lookup(None)) == []

    def test_index_maintained_on_insert(self, storage):
        table = storage.table("t")
        index = table.create_index("id")
        table.insert((7, "x"))
        assert [table.fetch(r) for r in index.lookup(7)] == [(7, "x")]

    def test_insert_many_extends_a_populated_index(self, storage):
        table = storage.table("t")
        table.insert_many([(i % 3, str(i)) for i in range(6)])
        index = table.create_index("id")
        version = table._version
        assert table.insert_many([(2, "x"), (None, "y"), (5, "z"), (2, "w")]) == 4
        assert table._version == version + 1
        assert index.lookup(2) == (2, 5, 6, 9)
        assert index.lookup(5) == (8,)
        assert index.lookup(0) == (0, 3)
        assert len(index) == 9
        assert table.insert_many([]) == 0
        assert table._version == version + 1

    def test_insert_many_rejects_the_whole_batch(self, storage):
        table = storage.table("t")
        index = table.create_index("id")
        with pytest.raises(SchemaError):
            table.insert_many([(1, "a"), (2,)])
        assert len(table) == 0 and len(index) == 0
        assert table._version == 0

    def test_bulk_insert_into_one_hot_key(self, storage):
        # One tuple concatenation per call, not one per row: 20 000
        # rows on a single key would otherwise copy 2e8 bucket slots.
        table = storage.table("t")
        index = table.create_index("id")
        table.insert_many([(1, "a")])
        table.insert_many([(1, "b")] * 20_000)
        assert index.lookup(1) == tuple(range(20_001))
        assert len(index) == 20_001

    def test_index_rebuilt_on_update_and_delete(self, storage):
        table = storage.table("t")
        table.insert_many([(i % 3, str(i)) for i in range(9)])
        table.create_index("id")
        table.delete_rows(lambda row: row[0] == 1)
        index = table.index_on("id")
        assert index.lookup(1) == () and len(index) == 6
        assert index.lookup(2) == (1, 3, 5)
        table.update_rows(lambda row: row[0] == 2, lambda row: (7, row[1]))
        index = table.index_on("id")
        assert index.lookup(7) == (1, 3, 5) and len(index) == 6

    def test_duplicate_index_rejected(self, storage):
        table = storage.table("t")
        table.create_index("id")
        with pytest.raises(StorageError):
            table.create_index("id")


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

    def test_create_index_updates_catalog(self, storage):
        storage.create_index("t", "id")
        assert storage.catalog.lookup("t").has_index_on("id")

    def test_schema_qualified_by_table_name(self, storage):
        schema = storage.table("t").schema
        assert schema.columns[0].table == "t"
