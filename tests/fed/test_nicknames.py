"""Unit tests for the nickname registry."""

import pytest

from repro.fed import FederationError, NicknameRegistry
from repro.sqlengine import Column, ColumnType, Schema, TableDef, TableStats


def _table(name="orders"):
    return TableDef(
        name=name,
        schema=Schema((Column("id", ColumnType.INT),)),
        stats=TableStats(row_count=10),
    )


class TestRegistration:
    def test_first_registration_needs_table_def(self):
        registry = NicknameRegistry()
        with pytest.raises(FederationError, match="requires a table"):
            registry.register("orders", "S1")

    def test_register_and_lookup(self):
        registry = NicknameRegistry()
        registry.register("orders", "S1", table_def=_table())
        assert registry.servers_for("orders") == frozenset({"S1"})
        assert registry.remote_table("orders", "S1") == "orders"

    def test_replica_placement(self):
        registry = NicknameRegistry()
        registry.register("orders", "S1", table_def=_table())
        registry.register("orders", "S2")
        assert registry.servers_for("orders") == frozenset({"S1", "S2"})
        assert registry.remote_table("orders", "S2") == "orders"

    def test_duplicate_placement_rejected(self):
        registry = NicknameRegistry()
        registry.register("orders", "S1", table_def=_table())
        with pytest.raises(FederationError, match="already placed"):
            registry.register("orders", "S1")

    def test_unknown_nickname(self):
        with pytest.raises(FederationError, match="unknown nickname"):
            NicknameRegistry().placements("ghost")

    def test_missing_placement(self):
        registry = NicknameRegistry()
        registry.register("orders", "S1", table_def=_table())
        with pytest.raises(FederationError, match="no placement"):
            registry.remote_table("orders", "S9")

    def test_case_insensitive(self):
        registry = NicknameRegistry()
        registry.register("Orders", "S1", table_def=_table())
        assert registry.servers_for("ORDERS") == frozenset({"S1"})


class TestCommonServers:
    def _registry(self):
        registry = NicknameRegistry()
        registry.register("a", "S1", table_def=_table("a"))
        registry.register("a", "S2")
        registry.register("b", "S2", table_def=_table("b"))
        registry.register("b", "S3")
        return registry

    def test_intersection(self):
        assert self._registry().common_servers(["a", "b"]) == frozenset({"S2"})

    def test_disjoint(self):
        registry = self._registry()
        registry.register("c", "S9", table_def=_table("c"))
        assert registry.common_servers(["a", "c"]) == frozenset()

    def test_empty_input(self):
        assert self._registry().common_servers([]) == frozenset()


class TestGlobalCatalog:
    def test_catalog_carries_schema_and_stats(self):
        registry = NicknameRegistry()
        registry.register("orders", "S1", table_def=_table())
        table = registry.global_catalog.lookup("orders")
        assert table.stats.row_count == 10
        assert table.schema.columns[0].table == "orders"

    def test_catalog_stats_are_copies(self):
        original = _table()
        registry = NicknameRegistry()
        registry.register("orders", "S1", table_def=original)
        registry.global_catalog.lookup("orders").stats.row_count = 999
        assert original.stats.row_count == 10

    def test_nicknames_sorted(self):
        registry = NicknameRegistry()
        registry.register("zz", "S1", table_def=_table("zz"))
        registry.register("aa", "S1", table_def=_table("aa"))
        assert registry.nicknames() == ["aa", "zz"]
