"""Property-based batch-size invariance, seeded via ``derive_rng``.

Complements ``test_engine_equivalence`` (hypothesis-driven, workload
tables) with deterministic randomized shapes over data the workload
never stresses: NULL-heavy columns, low-cardinality strings, empty
tables, and a drawn batch size besides 1 and 2 (which force every
multi-batch code path: selection vectors across batch boundaries, join
builds that span batches).  A ``hypothesis`` case drives ``HashJoin`` directly over
generated build sides (repeated, NULL and ``1`` / ``1.0`` / ``True``
keys at every batch boundary), where the build classification decides
which probe path runs, and probe sides that are plain values or a stored
table's columns; its rows must also be a tuple-at-a-time nested loop's.

Every generated query must produce byte-identical rows and bit-identical
``WorkMeter`` totals at its batch size, at 1 and at 2 as at the default
(``tests/batching.py``; no generated shape uses LIMIT).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import derive_rng
from repro.sqlengine import (
    ColumnRef,
    Comparison,
    Database,
    HashJoin,
    SeqScan,
    populate,
)
from repro.sqlengine.physical import MaterializedInput
from repro.sqlengine.types import Column, ColumnType, Schema
from repro.workload import TEST_SCALE
from repro.workload.schema import table_specs
from tests.batching import REFERENCE_BATCH_SIZES, assert_batch_invariant
from tests.sqlengine.test_columnar_engine import nested_loop_join

ROOT_SEED = 20260807


@pytest.fixture(scope="module")
def mixed_db():
    database = Database(name="columnar-eq")
    populate(database, table_specs(TEST_SCALE), seed=7)

    rng = derive_rng(ROOT_SEED, "data")
    names = ["alpha", "beta", "gamma", "delta", None, "alphabet", "beta_x"]
    database.create_table(
        "t",
        Schema(
            [
                Column("a", ColumnType.INT),
                Column("b", ColumnType.FLOAT),
                Column("s", ColumnType.STR),
                Column("c", ColumnType.INT),
            ]
        ),
    )
    database.load_rows(
        "t",
        [
            (
                None if rng.random() < 0.3 else rng.randint(-5, 5),
                None if rng.random() < 0.3 else round(rng.uniform(-2, 2), 3),
                rng.choice(names),
                i,
            )
            for i in range(499)
        ],
    )
    database.create_table("empty", Schema([Column("x", ColumnType.INT)]))
    database.load_rows("empty", [])
    database.analyze()
    return database


def assert_equivalent(database, sql, batch_size, check_meter=True):
    plan = database.explain(sql)[0].plan
    assert_plan_equivalent(database, plan, batch_size, check_meter, sql)


def assert_plan_equivalent(database, plan, batch_size, check_meter=True, what=None):
    return assert_batch_invariant(
        plan,
        database.storage,
        tuple(dict.fromkeys(REFERENCE_BATCH_SIZES + (batch_size,))),
        check_meter,
        what,
    )


# -- generators (pure functions of the derived rng) -------------------------


def _gen_filter(rng):
    column = rng.choice(["a", "b", "c"])
    op = rng.choice(["<", "<=", ">", ">=", "=", "!="])
    value = (
        round(rng.uniform(-2, 2), 2)
        if column == "b"
        else rng.randint(-5, 260)
    )
    extra = rng.choice(
        [
            "",
            " AND s LIKE '%a%'",
            " OR s IN ('beta', 'delta')",
            " AND s NOT LIKE 'alpha%'",
            f" OR a IN ({rng.randint(-5, 5)}, {rng.randint(-5, 5)})",
        ]
    )
    return f"SELECT a, b, s, c FROM t WHERE {column} {op} {value}{extra}"


def _gen_arithmetic(rng):
    op = rng.choice(["+", "-", "*", "/", "%"])
    literal = rng.randint(1, 9)
    return (
        f"SELECT a {op} {literal}, b * 2.0, a {op} c FROM t "
        f"WHERE c < {rng.randint(1, 499)}"
    )


def _gen_aggregate(rng):
    key = rng.choice(["s", "a", "a, s"])
    aggs = rng.choice(
        [
            "COUNT(*)",
            "COUNT(*), SUM(a), AVG(b)",
            "MIN(c), MAX(c), COUNT(b)",
            "COUNT(DISTINCT s), SUM(b)",
        ]
    )
    having = rng.choice(["", " HAVING COUNT(*) > 3"])
    return f"SELECT {key}, {aggs} FROM t GROUP BY {key}{having}"


def _gen_distinct(rng):
    columns = rng.choice(["s", "a", "b", "a, s"])
    return f"SELECT DISTINCT {columns} FROM t"


def _gen_join(rng):
    predicate = rng.choice(
        ["", f" AND o.totalprice > {rng.randint(50, 500)}.0"]
    )
    return (
        "SELECT o.orderkey, c.segment FROM orders o, customer c "
        f"WHERE o.custkey = c.custkey{predicate}"
    )


GENERATORS = (
    ("filter", _gen_filter),
    ("arithmetic", _gen_arithmetic),
    ("aggregate", _gen_aggregate),
    ("distinct", _gen_distinct),
    ("join", _gen_join),
)


@pytest.mark.parametrize("kind,generate", GENERATORS, ids=lambda g: None)
@pytest.mark.parametrize("case", range(8))
def test_random_shapes_bit_identical(mixed_db, kind, generate, case):
    rng = derive_rng(ROOT_SEED, kind, case)
    sql = generate(rng)
    batch_size = derive_rng(ROOT_SEED, kind, case, "bs").choice(
        [1, 2, 7, 1024]
    )
    assert_equivalent(mixed_db, sql, batch_size)


# -- fixed edge cases -------------------------------------------------------


@pytest.mark.parametrize("batch_size", [1, 2, 1024])
@pytest.mark.parametrize(
    "sql",
    [
        "SELECT x FROM empty",
        "SELECT COUNT(*), SUM(x), MIN(x) FROM empty",
        "SELECT DISTINCT x FROM empty",
        "SELECT s, COUNT(*) FROM t GROUP BY s",
        "SELECT COUNT(*), COUNT(a), COUNT(b), COUNT(s) FROM t",
        "SELECT c FROM t WHERE s LIKE '_eta%'",
        "SELECT b / a FROM t",
        "SELECT a, b, c FROM t ORDER BY c DESC, a LIMIT 17",
    ],
)
def test_edge_cases_bit_identical(mixed_db, sql, batch_size):
    # LIMIT is the documented meter exception; rows always match.
    assert_equivalent(
        mixed_db, sql, batch_size, check_meter="LIMIT" not in sql
    )


# -- hash-join build classification -----------------------------------------

_JOIN_COLUMNS = (
    Column("k1", ColumnType.FLOAT),
    Column("k2", ColumnType.INT),
    Column("tag", ColumnType.STR),
    Column("n", ColumnType.INT),
)
_JOIN_SCHEMAS = {
    side: Schema(_JOIN_COLUMNS).rename_table(side) for side in ("p", "b")
}

#: Few distinct values, so repeats, NULLs and the equal-but-distinct
#: spellings of one (1, 1.0, True) all turn up within a handful of rows.
_k1 = st.sampled_from([None, 1, 1.0, True, 2, 2.5, 3, 4, 5, 6])
_k2 = st.sampled_from([None, 1, 2])
_tag = st.sampled_from([None, "a", "b", "c"])


def _side(max_size):
    return st.lists(st.tuples(_k1, _k2, _tag), max_size=max_size).map(
        lambda keys: [key + (n,) for n, key in enumerate(keys)]
    )


def _stored_probe(probe):
    """*probe* as a stored table's scan: ``True`` stored as ``1.0``, the
    tag column NULL in some rows."""
    database = Database(name="hash-join-eq")
    database.create_table("probe", Schema(_JOIN_COLUMNS))
    database.load_rows(
        "probe", [(1 if row[0] is True else row[0],) + row[1:] for row in probe]
    )
    return database, SeqScan(database.catalog.lookup("probe"), "p")


@settings(max_examples=150, deadline=None)
@given(
    build=_side(12),
    probe=_side(10),
    keys=st.sampled_from([("k1",), ("k1", "k2"), ("tag",), ("tag", "k2")]),
    stored=st.booleans(),
    outer=st.booleans(),
    with_residual=st.booleans(),
    batch_size=st.sampled_from([1, 2, 3, 5, 1024]),
)
def test_hash_join_builds_bit_identical(
    build, probe, keys, stored, outer, with_residual, batch_size
):
    if stored:
        database, probe_plan = _stored_probe(probe)
        probe = database.storage.table("probe").rows
    else:
        database = Database(name="hash-join-eq")
        probe_plan = MaterializedInput("probe", _JOIN_SCHEMAS["p"], probe)
    plan = HashJoin(
        probe_plan,
        MaterializedInput("build", _JOIN_SCHEMAS["b"], build),
        [f"p.{k}" for k in keys],
        [f"b.{k}" for k in keys],
        residual=(
            Comparison("<=", ColumnRef("p.n"), ColumnRef("b.n"))
            if with_residual
            else None
        ),
        outer=outer,
    )
    result = assert_plan_equivalent(database, plan, batch_size)
    assert result.rows == nested_loop_join(plan, probe, build)
