"""The evaluation database schema.

Mirrors the paper's setup (Section 5): "We populated the remote servers
with tables from the sample database schema provided along with regular
DB2 installments.  Each table has been populated with randomly generated
data. ... The table sizes also varied, with small tables having on the
order of 1000s of tuples and large tables having on the order of
100000s of tuples."

We use an orders/lineitem/customer/product/supplier star so the four
query types of Section 5.2 (large⋈large, large⋈small, selective
variants, 3-way join) all have natural homes.  ``WorkloadScale`` shrinks
row counts for fast test/bench runs while preserving the large:small
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..sqlengine import (
    Choice,
    ColumnType,
    ForeignKey,
    RandomString,
    Serial,
    TableSpec,
    UniformFloat,
    UniformInt,
)

#: Value ranges referenced by query parameter generators; keep in sync
#: with the generators below.
TOTALPRICE_RANGE = (100.0, 10_000.0)
ACCTBAL_RANGE = (0.0, 10_000.0)
EXTPRICE_RANGE = (10.0, 1_000.0)
PRICE_RANGE = (1.0, 500.0)
N_PRIORITIES = 5
N_NATIONS = 25
N_CATEGORIES = 50
SEGMENTS = ("AUTO", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")


@dataclass(frozen=True)
class WorkloadScale:
    """Row counts for the two table size classes."""

    large_rows: int
    small_rows: int

    def __post_init__(self) -> None:
        if self.large_rows < 1 or self.small_rows < 1:
            raise ValueError("row counts must be positive")


#: The paper's sizes: large ~100k, small ~1k.
PAPER_SCALE = WorkloadScale(large_rows=100_000, small_rows=1_000)
#: Default for benchmarks: preserves the 100:1 ratio at tractable size.
BENCH_SCALE = WorkloadScale(large_rows=6_000, small_rows=300)
#: Minimal scale for unit tests.
TEST_SCALE = WorkloadScale(large_rows=800, small_rows=80)


def table_specs(scale: WorkloadScale = BENCH_SCALE) -> Tuple[TableSpec, ...]:
    """Deterministic specs for the sample database at *scale*."""
    large = scale.large_rows
    small = scale.small_rows
    return (
        TableSpec(
            "customer",
            (
                ("custkey", ColumnType.INT, Serial()),
                ("nation", ColumnType.INT, UniformInt(1, N_NATIONS)),
                ("acctbal", ColumnType.FLOAT, UniformFloat(*ACCTBAL_RANGE)),
                ("segment", ColumnType.STR, Choice(SEGMENTS)),
            ),
            row_count=small,
        ),
        TableSpec(
            "product",
            (
                ("prodkey", ColumnType.INT, Serial()),
                ("category", ColumnType.INT, UniformInt(1, N_CATEGORIES)),
                ("price", ColumnType.FLOAT, UniformFloat(*PRICE_RANGE)),
                ("brand", ColumnType.STR, RandomString(8)),
            ),
            row_count=small,
        ),
        TableSpec(
            "supplier",
            (
                ("suppkey", ColumnType.INT, Serial()),
                ("nation", ColumnType.INT, UniformInt(1, N_NATIONS)),
                ("rating", ColumnType.INT, UniformInt(1, 10)),
            ),
            row_count=small,
        ),
        TableSpec(
            "orders",
            (
                ("orderkey", ColumnType.INT, Serial()),
                ("custkey", ColumnType.INT, ForeignKey(small)),
                ("totalprice", ColumnType.FLOAT, UniformFloat(*TOTALPRICE_RANGE)),
                ("priority", ColumnType.INT, UniformInt(1, N_PRIORITIES)),
            ),
            row_count=large,
        ),
        TableSpec(
            "lineitem",
            (
                ("linekey", ColumnType.INT, Serial()),
                ("orderkey", ColumnType.INT, ForeignKey(large)),
                ("prodkey", ColumnType.INT, ForeignKey(small)),
                ("quantity", ColumnType.INT, UniformInt(1, 50)),
                ("extprice", ColumnType.FLOAT, UniformFloat(*EXTPRICE_RANGE)),
            ),
            row_count=large,
        ),
    )
