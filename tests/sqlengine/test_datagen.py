"""Unit tests for deterministic data generation."""

import hashlib

import pytest

from repro.sqlengine import (
    Choice,
    ColumnType,
    Database,
    ForeignKey,
    Nullable,
    RandomString,
    Serial,
    TableSpec,
    UniformFloat,
    UniformInt,
    ZipfInt,
    populate,
)
from repro.sqlengine.catalog import collect_stats
from repro.workload import TEST_SCALE, table_specs


def _spec(row_count=100):
    return TableSpec(
        "t",
        (
            ("id", ColumnType.INT, Serial()),
            ("fk", ColumnType.INT, ForeignKey(10)),
            ("val", ColumnType.FLOAT, UniformFloat(0.0, 1.0)),
            ("cat", ColumnType.STR, Choice(("a", "b"))),
            ("skew", ColumnType.INT, ZipfInt(100)),
            ("maybe", ColumnType.INT, Nullable(UniformInt(1, 5), 0.5)),
            ("name", ColumnType.STR, RandomString(6)),
        ),
        row_count=row_count,
    )


class TestDeterminism:
    def test_same_seed_same_rows(self):
        a = list(_spec().generate_rows(seed=9))
        b = list(_spec().generate_rows(seed=9))
        assert a == b

    def test_different_seed_different_rows(self):
        a = list(_spec().generate_rows(seed=9))
        b = list(_spec().generate_rows(seed=10))
        assert a != b

    def test_different_tables_different_streams(self):
        spec_a = _spec()
        spec_b = TableSpec("other", spec_a.columns, spec_a.row_count)
        assert list(spec_a.generate_rows(7)) != list(spec_b.generate_rows(7))


class TestGenerators:
    def test_serial_is_sequential(self):
        rows = list(_spec().generate_rows(7))
        assert [r[0] for r in rows] == list(range(1, 101))

    def test_foreign_keys_in_range(self):
        rows = list(_spec().generate_rows(7))
        assert all(1 <= r[1] <= 10 for r in rows)

    def test_uniform_float_in_range(self):
        rows = list(_spec().generate_rows(7))
        assert all(0.0 <= r[2] <= 1.0 for r in rows)

    def test_choice_values(self):
        rows = list(_spec().generate_rows(7))
        assert {r[3] for r in rows} <= {"a", "b"}

    def test_zipf_in_range_and_skewed(self):
        rows = list(_spec(row_count=2000).generate_rows(7))
        values = [r[4] for r in rows]
        assert all(1 <= v <= 100 for v in values)
        low_half = sum(1 for v in values if v <= 50)
        assert low_half > len(values) * 0.55  # skewed toward small keys

    def test_nullable_rate(self):
        rows = list(_spec(row_count=2000).generate_rows(7))
        nulls = sum(1 for r in rows if r[5] is None)
        assert 0.4 < nulls / len(rows) < 0.6

    def test_random_string_length(self):
        rows = list(_spec().generate_rows(7))
        assert all(len(r[6]) == 6 for r in rows)


class TestScaled:
    def test_row_count_scaled(self):
        assert _spec().scaled(0.1).row_count == 10

    def test_fk_range_scaled(self):
        scaled = _spec().scaled(0.5)
        fk_gen = dict((name, gen) for name, _, gen in scaled.columns)["fk"]
        assert fk_gen.parent_rows == 5

    def test_nullable_fk_scaled(self):
        spec = TableSpec(
            "t",
            (("fk", ColumnType.INT, Nullable(ForeignKey(100), 0.1)),),
            row_count=10,
        )
        scaled = spec.scaled(0.2)
        gen = scaled.columns[0][2]
        assert gen.inner.parent_rows == 20

    def test_minimum_one_row(self):
        assert _spec().scaled(0.0001).row_count == 1


def test_populate_creates_and_loads():
    db = Database("x")
    spec = TableSpec("t", (("id", ColumnType.INT, Serial()),), row_count=5)
    populate(db, [spec], seed=1)
    assert db.row_count("t") == 5
    assert db.catalog.lookup("t").stats.row_count == 5


#: table -> sha256 of ``repr`` of its ``generate_rows(7)`` and of the
#: ``collect_stats`` over them: the sample tables at ``TEST_SCALE``, and
#: ``_spec()``, which draws from every generator.  A change to the order
#: or number of RNG calls, to a generator, or to the statistics'
#: arithmetic moves a digest; every host of every deployment loads
#: these rows and plans with these statistics.
_DATA_DIGESTS = {
    "customer": (
        "68dbc022ab54b9f7348a4ad1077b8d80008850911e8d5540076f98995f317657",
        "ff58264f896b39930169333c65ec81d19fba87ca1d8cfa0ee3083eb8bc991ddd",
    ),
    "product": (
        "6c7ed637f2749c77df75e70d5c398e81b2c09dc4c85f92e61966619ceea56b54",
        "2bff155f3279b5b15e25820383b354a7c6c3f70ff963e8be7ef3d72847f8cb71",
    ),
    "supplier": (
        "53db9b643b3ae24b710ebde7c9519348644867563f39daeea6621bab8e8475ec",
        "26d8b4a53e713f7f1767ddb18ead4a2d5c7125823ffd47cc6ffe3783f0f37091",
    ),
    "orders": (
        "493c71e9cc6a75ed89ea32605bf1c4b6a956227af80e777d76ee81d0acf6809f",
        "2351d3f67d0f5fd7d318089d35dd041540598629f1d4e4f996397076540204a2",
    ),
    "lineitem": (
        "9255d77d6adbec61448e4cf6bad9ae6154cdc7a60db305ffdd0b7b7b5b2e74cb",
        "f22434f68450c5586432383fc2cf70371c042129a7228f859dccc8728af462f3",
    ),
    "t": (
        "0344e20ce5c7e1dd394d9ddf60120e10a20e392ef060090b0888778141944647",
        "293dff644cb4fbf275635e702afd9cd8a4f6ab3e431dba5507c37d5afa990bf5",
    ),
}


@pytest.mark.parametrize(
    "spec", table_specs(TEST_SCALE) + (_spec(),), ids=lambda spec: spec.name
)
def test_generated_rows_and_statistics_are_pinned(spec):
    rows = list(spec.generate_rows(7))
    stats = collect_stats(spec.schema(), rows)
    assert tuple(
        hashlib.sha256(repr(pinned).encode()).hexdigest() for pinned in (rows, stats)
    ) == _DATA_DIGESTS[spec.name]
