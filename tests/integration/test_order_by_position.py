"""An integer ORDER BY or GROUP BY key names a select item, as in SQL-92
and SQLite (one outside the select list is a :class:`BindError`:
``test_wrong_statements.py``).

The answers, order included, are compared with stdlib ``sqlite3`` loaded
with the same rows (:class:`~repro.chaos.sqlite_answers.SqliteAnswers`):
through one server's ``Database`` on both engines, and through
``InformationIntegrator.submit`` over servers on both engines and both
topologies.  The replica topology keeps orders and lineitem on different
servers, so there the join and the sort run in the II's merge plan.
"""

from __future__ import annotations

import pytest

from repro.chaos.sqlite_answers import SqliteAnswers
from repro.harness.deployment import (
    DEFAULT_SERVER_SPECS,
    REPLICA_PLACEMENT,
    REPLICA_SERVER_SPECS,
    build_federation,
    build_replica_federation,
)
from repro.sqlengine import ENGINES, ColumnRef, bind, execute_plan, parse
from repro.sqlengine.parser import OrderItem
from repro.workload import TEST_SCALE
from tests.datasets import server_databases

#: (statement, the output positions its ORDER BY sorts on).  Rows that
#: tie on those positions may come in any order; nothing else may differ.
ORDERED = [
    ("SELECT c.custkey, c.nation FROM customer c ORDER BY 2 DESC", (1,)),
    ("SELECT c.custkey, c.nation FROM customer c ORDER BY 2 DESC, 1", (1, 0)),
    ("SELECT c.segment, c.custkey FROM customer c ORDER BY 1 DESC, 2 LIMIT 7", (0, 1)),
    ("SELECT c.nation, c.custkey FROM customer c ORDER BY c.nation, 2 DESC", (0, 1)),
    (
        "SELECT o.priority, COUNT(*) AS n FROM orders o GROUP BY 1 ORDER BY 2 DESC, 1",
        (1, 0),
    ),
    (
        "SELECT c.nation, MAX(c.acctbal) FROM customer c GROUP BY c.nation "
        "ORDER BY 2, 1",
        (1, 0),
    ),
    (
        "SELECT o.orderkey, l.quantity FROM orders o JOIN lineitem l "
        "ON o.orderkey = l.orderkey WHERE l.quantity > 40 ORDER BY 2 DESC, 1",
        (1, 0),
    ),
    (
        "SELECT l.quantity, COUNT(*) AS n FROM lineitem l JOIN orders o "
        "ON l.orderkey = o.orderkey WHERE o.priority = 1 GROUP BY 1 "
        "ORDER BY 2 DESC, 1 LIMIT 5",
        (1, 0),
    ),
    # A group key read beside an aggregate and in HAVING.
    (
        "SELECT c.nation, COUNT(*) * 2 + c.nation AS x FROM customer c "
        "GROUP BY c.nation HAVING c.nation > 20 ORDER BY 2 DESC, 1",
        (1, 0),
    ),
    (
        "SELECT o.priority, MAX(l.quantity) AS q FROM orders o JOIN lineitem l "
        "ON o.orderkey = l.orderkey GROUP BY 1 HAVING o.priority < 4 ORDER BY 1",
        (0,),
    ),
]

_TOPOLOGIES = {
    build_federation: (DEFAULT_SERVER_SPECS, None),
    build_replica_federation: (REPLICA_SERVER_SPECS, REPLICA_PLACEMENT),
}


@pytest.fixture(scope="module")
def deployments():
    return {
        (build.__name__, engine): build(
            scale=TEST_SCALE,
            prebuilt_databases=server_databases(specs, placement, engine),
        )
        for build, (specs, placement) in _TOPOLOGIES.items()
        for engine in ENGINES
    }


@pytest.fixture(scope="module")
def oracle(deployments):
    """SQLite holding the rows the federation's servers hold."""
    deployment = deployments["build_federation", "columnar"]
    return SqliteAnswers(server.database for server in deployment.servers.values())


def _assert_same_answer(rows, expected, keys):
    rows, expected = [tuple(r) for r in rows], [tuple(r) for r in expected]
    assert [tuple(r[k] for k in keys) for r in rows] == [
        tuple(r[k] for k in keys) for r in expected
    ]
    assert sorted(rows) == sorted(expected)


@pytest.mark.parametrize("sql, keys", ORDERED, ids=[sql for sql, _ in ORDERED])
def test_local_answers_equal_sqlite(deployments, oracle, sql, keys):
    expected = oracle.rows(sql)
    assert expected
    database = deployments["build_federation", "columnar"].servers["S1"].database
    plan = database.explain(sql)[0].plan
    for engine in ENGINES:
        result = execute_plan(plan, database.storage, engine=engine)
        _assert_same_answer(result.rows, expected, keys)


@pytest.mark.parametrize("sql, keys", ORDERED, ids=[sql for sql, _ in ORDERED])
def test_federated_answers_equal_sqlite(deployments, oracle, sql, keys):
    expected = oracle.rows(sql)
    for deployment in deployments.values():
        _assert_same_answer(deployment.integrator.submit(sql).rows, expected, keys)


def test_the_merge_plan_sorts_on_the_named_item(deployments):
    sql = ORDERED[6][0]
    result = deployments["build_replica_federation", "columnar"].integrator.submit(sql)
    assert len(result.fragments) == 2
    assert "Sort(l.quantity DESC, o.orderkey ASC)" in result.merge_plan.explain()


def test_a_position_names_the_output_column(sample_databases):
    # test_frontend_reference.py's ORDER BY 1 example, plus a second key.
    catalog = sample_databases["S1"].catalog
    sql = (
        "SELECT c.*, o.orderkey FROM customer c LEFT OUTER JOIN orders o "
        "ON c.custkey = o.custkey ORDER BY 1 DESC, 5 LIMIT 5"
    )
    assert bind(parse(sql), catalog).order_by == (
        OrderItem(ColumnRef("c.custkey"), False),
        OrderItem(ColumnRef("o.orderkey"), True),
    )
    sql = "SELECT c.nation, COUNT(*) AS n FROM customer c GROUP BY 1 ORDER BY 2"
    grouped = bind(parse(sql), catalog)
    assert grouped.group_by == (ColumnRef("c.nation"),)
    assert grouped.order_by == (OrderItem(ColumnRef("n"), True),)
