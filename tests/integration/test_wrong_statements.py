"""Well-formed but wrong statements fail as SQL errors, everywhere, with
the books settled.

Each statement below parses; each is wrong against the sample schema:
an unknown or ambiguous column, a type mismatch, an aggregate where no
group exists yet, an unknown nickname.  ``bind``, ``Database.explain``
(asked again, at the same and at an equal server, after the shared entry
has seen the text) and ``InformationIntegrator.submit`` must raise a
:class:`SqlError` subclass — nothing else — with one message; after
``submit`` the plan cache holds nothing and no patroller record is left
open.  The concurrent runtime reports the same query as failed.
"""

from __future__ import annotations

import pytest

from repro.fed import ConcurrentRuntime
from repro.fed.patroller import QueryStatus
from repro.harness import build_federation
from repro.sqlengine import SqlError, bind, parse
from repro.workload import TEST_SCALE

WRONG = {
    "unknown column": "SELECT o.nosuch FROM orders o",
    "unknown bare column": "SELECT COUNT(*) AS n FROM orders o WHERE nosuch > 1",
    "ambiguous column": (
        "SELECT custkey FROM orders o, customer c WHERE o.custkey = c.custkey"
    ),
    "string compared with number": (
        "SELECT c.custkey FROM customer c WHERE c.segment > 5"
    ),
    "string joined with number": (
        "SELECT o.orderkey FROM orders o, customer c WHERE o.custkey = c.segment"
    ),
    "arithmetic on a string": "SELECT c.segment * 2 AS x FROM customer c",
    "string in a numeric list": (
        "SELECT c.custkey FROM customer c WHERE c.nation IN ('a', 'b')"
    ),
    "LIKE over a number": "SELECT c.custkey FROM customer c WHERE c.nation LIKE '1%'",
    "UPPER of a number": "SELECT UPPER(c.nation) AS u FROM customer c",
    "AVG of a string": "SELECT AVG(c.segment) AS a FROM customer c",
    "number as a condition": "SELECT c.custkey FROM customer c WHERE c.nation",
    "aggregate in WHERE": (
        "SELECT COUNT(*) AS n FROM orders o WHERE SUM(o.totalprice) > 5"
    ),
    "aggregate in ON": (
        "SELECT COUNT(*) AS n FROM orders o JOIN customer c "
        "ON o.custkey = c.custkey AND MAX(c.acctbal) > 1"
    ),
    "aggregate in GROUP BY": (
        "SELECT COUNT(*) AS n FROM orders o GROUP BY SUM(o.priority)"
    ),
    "unknown nickname": "SELECT x.a FROM nosuch x",
    "unknown nickname joined": (
        "SELECT o.orderkey FROM orders o, nosuch x WHERE o.orderkey = x.a"
    ),
}


@pytest.fixture()
def deployment(sample_databases):
    return build_federation(scale=TEST_SCALE, prebuilt_databases=sample_databases)


def _error(call, *args) -> SqlError:
    with pytest.raises(SqlError) as caught:
        call(*args)
    return caught.value


@pytest.mark.parametrize("sql", WRONG.values(), ids=WRONG.keys())
def test_bind_explain_and_submit_raise_one_sql_error(deployment, sql):
    first, second = (deployment.servers[n].database for n in ("S1", "S2"))
    expected = _error(bind, parse(sql), first.catalog)
    # A statement planned just before: the shared entry is occupied.
    first.explain("SELECT COUNT(*) AS n FROM orders o WHERE o.priority = 2")
    cached = [s.statement_cache_stats()["entries"] for s in (first, second)]
    for server in (first, first, second, first):
        error = _error(server.explain, sql)
        assert (type(error), str(error)) == (type(expected), str(expected))
    assert [s.statement_cache_stats()["entries"] for s in (first, second)] == cached

    integrator = deployment.integrator
    error = _error(integrator.submit, sql)
    assert str(error) == str(expected)
    assert integrator.plan_cache.stats()["entries"] == 0
    (record,) = integrator.patroller.records()
    assert record.status is QueryStatus.FAILED
    assert record.error == str(expected)


def test_a_wrong_statement_fails_alone_in_a_concurrent_run(deployment):
    runtime = ConcurrentRuntime(deployment.integrator)
    good = "SELECT COUNT(*) AS n FROM orders o WHERE o.priority = 2"
    handles = [
        runtime.submit_at(0.0, good),
        runtime.submit_at(1.0, WRONG["aggregate in WHERE"]),
        runtime.submit_at(2.0, good),
    ]
    runtime.run()
    assert [h.status for h in handles] == ["completed", "failed", "completed"]
    assert isinstance(handles[1].error, SqlError)
    assert all(
        record.status is not QueryStatus.RUNNING
        for record in deployment.integrator.patroller.records()
    )
