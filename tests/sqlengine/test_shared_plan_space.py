"""Databases whose catalogs hold equal content share one parse and one
bind per statement, and each builds and prices its own plan nodes under
its own profile.

The reference is planning that shares nothing: ``plan_sql`` over the same
catalog and profile parses, binds and plans afresh.  Per database,
``explain`` must return exactly its candidates — signatures, ``PlanCost``
compared with ``==`` and order — while the databases that share are seen
sharing, by call counts.
"""

from __future__ import annotations

import collections
from typing import List

import pytest
from hypothesis import given, settings

from repro.sqlengine import Catalog, Database, SqlError, plan_sql, populate
from repro.sqlengine import database as database_module
from repro.sqlengine.cost import REFERENCE_PROFILE, ServerProfile
from repro.sqlengine.logical import BindError
from repro.workload.queries import QT4

from .test_optimizer_oracle import OTHER_PROFILE, join_problems

PROFILES = (
    ServerProfile("fast", cpu_speed=2.2, io_speed=2.5),
    REFERENCE_PROFILE,
    OTHER_PROFILE,
)


def _described(candidates):
    return [(c.signature, c.cost) for c in candidates]


def _servers(source_catalog) -> List[Database]:
    """One database per profile over its own copy of *source_catalog*:
    equal content, distinct catalog objects."""
    servers = []
    for profile in PROFILES:
        server = Database(profile.name, profile=profile)
        server.catalog = source_catalog.stats_only_clone()
        servers.append(server)
    return servers


@pytest.fixture()
def calls(monkeypatch):
    """Counts of the parses, binds and optimizer runs ``Database.explain``
    makes from here on, with no statement planned before."""
    counts = collections.Counter()

    def counting(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(database_module, "_last_planned", None)
    for name in ("parse", "bind"):
        monkeypatch.setattr(
            database_module, name, counting(name, getattr(database_module, name))
        )
    optimizer = database_module.Optimizer
    monkeypatch.setattr(
        optimizer, "optimize", counting("optimize", optimizer.optimize)
    )
    return counts


# ---------------------------------------------------------------------------
# equal to planning alone
# ---------------------------------------------------------------------------


@given(join_problems())
@settings(deadline=None)
def test_generated_problems_plan_as_if_alone(problem):
    sql, catalog, _ = problem
    for server in _servers(catalog):
        try:
            expected = _described(plan_sql(sql, server.catalog, server.profile))
        except SqlError as exc:
            with pytest.raises(type(exc)) as caught:
                server.explain(sql)
            assert str(caught.value) == str(exc)
            continue
        assert _described(server.explain(sql)) == expected, (server.name, sql)


# ---------------------------------------------------------------------------
# what is shared, counted
# ---------------------------------------------------------------------------


def test_equal_servers_parse_and_bind_once(sample_databases, calls):
    servers = _servers(sample_databases["S1"].catalog)
    sql = QT4.instance(0).sql
    candidate_lists = [server.explain(sql) for server in servers]
    assert calls == {"parse": 1, "bind": 1, "optimize": len(servers)}
    # Asked again, every server answers from its own statement cache.
    for server, candidates in zip(servers, candidate_lists):
        assert [c.plan for c in server.explain(sql)] == [c.plan for c in candidates]
    assert calls["optimize"] == len(servers)


def test_a_server_missing_a_table_raises_the_same_bind_error_every_time(
    sample_databases, calls
):
    full, lacking, other = _servers(sample_databases["S1"].catalog)
    lacking.catalog = Catalog()
    for table in full.catalog:
        if table.name != "orders":
            lacking.catalog.register(table)
    sql = QT4.instance(0).sql
    with pytest.raises(BindError) as first:
        lacking.explain(sql)
    full.explain(sql)
    messages = {str(first.value)}
    for server in (lacking, other, lacking):
        if server is lacking:
            with pytest.raises(BindError) as again:
                server.explain(sql)
            messages.add(str(again.value))
        else:
            assert _described(server.explain(sql)) == _described(
                plan_sql(sql, server.catalog, server.profile)
            )
    assert messages == {"unknown table 'orders'"}
    # A failed bind caches nothing: the first attempt leaves no entry to
    # share, so the full server parses again; the lacking server binds
    # at every attempt, the two full servers once between them.
    assert calls["parse"] == 2
    assert calls["bind"] == 3 + 1
    assert lacking.statement_cache_stats()["entries"] == 0


def test_different_content_shares_the_parse_but_binds_again(sample_databases, calls):
    one, rescaled, _ = _servers(sample_databases["S1"].catalog)
    stats = rescaled.catalog.lookup("orders").stats
    rescaled.catalog.update_stats("orders", stats.scaled(0.5))
    sql = QT4.instance(0).sql
    ours, theirs = one.explain(sql), rescaled.explain(sql)
    assert calls == {"parse": 1, "bind": 2, "optimize": 2}
    # Each server's candidates are its own planning's over its own
    # catalog, and the rescaled statistics are priced: the rescaled
    # server does not answer as its profile would over the other's.
    for server, candidates in ((one, ours), (rescaled, theirs)):
        assert _described(candidates) == _described(
            plan_sql(sql, server.catalog, server.profile)
        )
    assert [c.cost for c in theirs] != [c.cost for c in ours]
    assert _described(theirs) != _described(plan_sql(sql, one.catalog, rescaled.profile))


# ---------------------------------------------------------------------------
# a shared plan against later catalog changes
# ---------------------------------------------------------------------------


def test_analyze_at_one_server_moves_no_plan_another_serves(tiny_specs, calls):
    changed, kept = Database("A"), Database("B", profile=OTHER_PROFILE)
    for server in (changed, kept):
        populate(server, tiny_specs, seed=42)
    assert changed.catalog.content() == kept.catalog.content()
    sql = (
        "SELECT d.budget, COUNT(*) AS n FROM emp e, dept d "
        "WHERE e.deptno = d.deptno AND e.salary > 5000 GROUP BY d.budget"
    )
    before = changed.explain(sql)
    served = kept.explain(sql)
    assert calls["bind"] == 1

    emp = changed.storage.table("emp")
    changed.load_rows("emp", list(emp.rows) * 3)  # loads, then analyzes
    assert changed.catalog.content() != kept.catalog.content()

    # The other server's cached candidates hold the definitions they were
    # planned over: re-costing them gives what they recorded.
    assert kept.explain(sql) == served
    for candidate in served:
        assert kept.estimate_plan(candidate.plan) == candidate.cost
    assert calls["bind"] == 1

    # The changed server binds again and plans against its new statistics.
    after = changed.explain(sql)
    assert calls["bind"] == 2
    assert _described(after) == _described(
        plan_sql(sql, changed.catalog, changed.profile)
    )
    assert _described(after) != _described(before)
    for candidate in before:
        assert changed.estimate_plan(candidate.plan) == candidate.cost
