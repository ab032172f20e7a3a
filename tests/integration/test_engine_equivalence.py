"""Differential harness: the columnar engine against the row reference.

The columnar engine is only allowed to change wall-clock time.  For
every query — the full paper workload plus randomized filter / join /
aggregate shapes — both engines must return identical row lists *and*
identical ``WorkMeter`` totals, because metered work drives the
response-time simulation and QCC calibration (docs/execution.md).

The single documented exception is LIMIT: the columnar engine
terminates early at batch granularity, so it may meter slightly more
scanned work than the row engine (``test_columnar_engine`` pins the
exact batch-boundary amounts).  Rows must always match exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sqlengine import Database, execute_plan, populate
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES
from repro.workload.schema import table_specs

ENGINES = ("row", "columnar")


@pytest.fixture(scope="module")
def workload_db():
    database = Database(name="diff")
    populate(database, table_specs(TEST_SCALE), seed=7)
    return database


def run_all(database, sql):
    plan = database.explain(sql)[0].plan
    return {
        engine: execute_plan(
            plan, database.storage, engine=engine
        )
        for engine in ENGINES
    }


def assert_equivalent(database, sql, check_meter=True):
    results = run_all(database, sql)
    reference, columnar = results["row"], results["columnar"]
    assert (reference.engine, columnar.engine) == ENGINES
    assert columnar.rows == reference.rows, sql
    if check_meter:
        assert columnar.meter.cpu_ms == reference.meter.cpu_ms, sql
        assert columnar.meter.io_ms == reference.meter.io_ms, sql
    assert columnar.meter.tuples_out == reference.meter.tuples_out, sql


# -- the paper workload -----------------------------------------------------


@pytest.mark.parametrize(
    "template", EXTENDED_QUERY_TYPES, ids=lambda t: t.name
)
@pytest.mark.parametrize("instance_id", [0, 1, 2])
def test_workload_queries_bit_identical(workload_db, template, instance_id):
    sql = template.instance(instance_id, seed=11).sql
    assert_equivalent(workload_db, sql)


# -- randomized shapes ------------------------------------------------------


@st.composite
def _filter_queries(draw):
    threshold = draw(st.floats(10.0, 1000.0, allow_nan=False))
    quantity = draw(st.integers(1, 50))
    connective = draw(st.sampled_from(["AND", "OR"]))
    return (
        "SELECT l.linekey, l.extprice, l.quantity FROM lineitem l "
        f"WHERE l.extprice > {threshold:.2f} {connective} "
        f"l.quantity < {quantity}"
    )


def _join_sql(threshold, selective):
    where = f" AND o.totalprice > {threshold}" if selective else ""
    return (
        "SELECT o.orderkey, c.nation, o.totalprice "
        "FROM orders o JOIN customer c ON o.custkey = c.custkey"
        f"{where}"
    )


@st.composite
def _aggregate_queries(draw):
    key = draw(st.sampled_from(["l.quantity", "l.orderkey", "l.prodkey"]))
    aggs = draw(
        st.sampled_from(
            [
                "COUNT(*) AS n",
                "COUNT(*) AS n, SUM(l.extprice) AS s",
                "SUM(l.extprice) AS s, AVG(l.extprice) AS a, "
                "MIN(l.extprice) AS lo, MAX(l.extprice) AS hi",
            ]
        )
    )
    having = draw(st.sampled_from(["", " HAVING COUNT(*) > 2"]))
    return (
        f"SELECT {key}, {aggs} FROM lineitem l GROUP BY {key}{having}"
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=_filter_queries())
def test_random_filters_bit_identical(workload_db, sql):
    assert_equivalent(workload_db, sql)


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    threshold=st.integers(100, 9_000),
    selective=st.booleans(),
)
def test_random_joins_bit_identical(workload_db, threshold, selective):
    assert_equivalent(workload_db, _join_sql(threshold, selective))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(sql=_aggregate_queries())
def test_random_aggregates_bit_identical(workload_db, sql):
    assert_equivalent(workload_db, sql)


# -- order by / distinct / limit -------------------------------------------


def test_order_by_distinct_bit_identical(workload_db):
    assert_equivalent(
        workload_db,
        "SELECT DISTINCT c.nation FROM customer c ORDER BY c.nation DESC",
    )


def test_limit_rows_identical_meter_exempt(workload_db):
    # LIMIT is the documented meter exception: the columnar engine
    # scans to the batch boundary, so the meters are exempt.  Rows and
    # the output count must still match.
    assert_equivalent(
        workload_db,
        "SELECT l.linekey FROM lineitem l "
        "WHERE l.extprice > 50.0 ORDER BY l.linekey LIMIT 17",
        check_meter=False,
    )
