"""Databases whose catalogs hold equal content share one parse, one bind
and one set of plan nodes per statement, and each prices them under its
own profile.

The reference is planning that shares nothing: ``plan_sql`` over the same
catalog and profile builds every node afresh.  Per
database, ``explain`` must return exactly its candidates — signatures,
``PlanCost`` compared with ``==`` and order — while the databases that
share are seen sharing: by call counts and by node identity.
"""

from __future__ import annotations

import collections
from typing import List

import pytest
from hypothesis import given, settings

from repro.sqlengine import Catalog, Database, SqlError, plan_sql, populate
from repro.sqlengine import database as database_module
from repro.sqlengine import physical
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


def _nodes(plan) -> List[physical.PhysicalPlan]:
    nodes, stack = [], [plan]
    while stack:
        node = stack.pop()
        nodes.append(node)
        stack.extend(node.children())
    return nodes


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


@pytest.fixture()
def built(monkeypatch):
    """Every plan node constructed from here on, in order."""
    nodes: List[physical.PhysicalPlan] = []

    def recording(init):
        def wrapper(self, *args, **kwargs):
            init(self, *args, **kwargs)
            nodes.append(self)

        return wrapper

    for operator in physical.PhysicalPlan.__subclasses__():
        monkeypatch.setattr(operator, "__init__", recording(operator.__init__))
    return nodes


# ---------------------------------------------------------------------------
# equal to planning alone
# ---------------------------------------------------------------------------


@given(join_problems())
@settings(max_examples=60, deadline=None, derandomize=True)
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


def test_equal_servers_parse_and_bind_once_and_build_each_node_once(
    sample_databases, calls, built
):
    servers = _servers(sample_databases["S1"].catalog)
    sql = QT4.instance(0).sql
    candidate_lists = [server.explain(sql) for server in servers]
    assert calls == {"parse": 1, "bind": 1, "optimize": len(servers)}
    # Each server priced under its own profile, yet a plan shape met at
    # any of them is one object everywhere, built once.
    by_signature = {}
    for candidates in candidate_lists:
        for candidate in candidates:
            for node in _nodes(candidate.plan):
                assert by_signature.setdefault(node.signature(), node) is node
    shapes = collections.Counter(node.signature() for node in built)
    assert shapes and max(shapes.values()) == 1
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
    shared = full.explain(sql)
    messages = {str(first.value)}
    for server in (lacking, other, lacking):
        if server is lacking:
            with pytest.raises(BindError) as again:
                server.explain(sql)
            messages.add(str(again.value))
        else:
            plans = {c.plan.signature(): c.plan for c in server.explain(sql)}
            assert any(plans.get(c.signature) is c.plan for c in shared)
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
    assert not {id(n) for c in ours for n in _nodes(c.plan)} & {
        id(n) for c in theirs for n in _nodes(c.plan)
    }


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
    assert {id(n) for n in _nodes(before[0].plan)} & {
        id(n) for c in served for n in _nodes(c.plan)
    }

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
