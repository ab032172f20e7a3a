"""Unit tests for the catalog and statistics collection."""

import pytest

from repro.sqlengine import (
    Catalog,
    CatalogError,
    Column,
    ColumnType,
    Schema,
    TableDef,
    TableStats,
    collect_stats,
)
from repro.sqlengine.catalog import ColumnStats


def _schema():
    return Schema(
        (
            Column("id", ColumnType.INT),
            Column("name", ColumnType.STR),
            Column("score", ColumnType.FLOAT),
        )
    )


ROWS = [
    (1, "alpha", 1.0),
    (2, "beta", 2.0),
    (3, "beta", None),
    (4, None, 4.0),
]


class TestCollectStats:
    def test_row_count(self):
        assert collect_stats(_schema(), ROWS).row_count == 4

    def test_distinct_counts(self):
        stats = collect_stats(_schema(), ROWS)
        assert stats.for_column("id").n_distinct == 4
        assert stats.for_column("name").n_distinct == 2

    def test_min_max(self):
        stats = collect_stats(_schema(), ROWS)
        assert stats.for_column("score").min_value == 1.0
        assert stats.for_column("score").max_value == 4.0

    def test_null_fraction(self):
        stats = collect_stats(_schema(), ROWS)
        assert stats.for_column("score").null_fraction == pytest.approx(0.25)
        assert stats.for_column("id").null_fraction == 0.0

    def test_avg_str_len(self):
        stats = collect_stats(_schema(), ROWS)
        # alpha(5), beta(4), beta(4) -> 13/3
        assert stats.for_column("name").avg_str_len == pytest.approx(13 / 3)

    def test_empty_table(self):
        stats = collect_stats(_schema(), [])
        assert stats.row_count == 0
        assert stats.for_column("id").min_value is None
        assert stats.for_column("id").n_distinct == 1  # floor of 1

    def test_qualified_lookup(self):
        stats = collect_stats(_schema(), ROWS)
        assert stats.for_column("t.id") is stats.for_column("id")


class TestTableStatsScaled:
    def test_scaling(self):
        stats = collect_stats(_schema(), ROWS).scaled(0.5)
        assert stats.row_count == 2
        assert stats.for_column("id").n_distinct <= 2

    def test_scaling_floor(self):
        stats = collect_stats(_schema(), ROWS).scaled(0.0)
        assert stats.row_count == 1


class TestColumnStats:
    def test_value_range_numeric(self):
        cs = ColumnStats(n_distinct=5, min_value=2, max_value=12)
        assert cs.value_range() == 10.0

    def test_value_range_non_numeric(self):
        cs = ColumnStats(n_distinct=5, min_value="a", max_value="z")
        assert cs.value_range() is None


class TestCatalog:
    def _table(self, name="t"):
        return TableDef(name=name, schema=_schema(), stats=collect_stats(_schema(), ROWS))

    def test_register_and_lookup(self):
        catalog = Catalog()
        catalog.register(self._table())
        assert catalog.lookup("T").name == "t"  # case-insensitive
        assert catalog.has_table("t")

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.register(self._table())
        with pytest.raises(CatalogError):
            catalog.register(self._table())

    def test_unknown_lookup(self):
        with pytest.raises(CatalogError):
            Catalog().lookup("missing")

    def test_table_names_sorted(self):
        catalog = Catalog()
        catalog.register(self._table("zeta"))
        catalog.register(self._table("alpha"))
        assert catalog.table_names() == ["alpha", "zeta"]

    def test_stats_only_clone_is_independent(self):
        catalog = Catalog()
        catalog.register(self._table())
        clone = catalog.stats_only_clone()
        clone.update_stats("t", TableStats(row_count=999))
        assert catalog.lookup("t").stats.row_count == 4
        assert clone.lookup("t").stats.row_count == 999
