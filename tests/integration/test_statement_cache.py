"""The server-side statement cache must be behavior-invisible.

``Database.explain`` keeps its answers for as long as the catalog and the
optimizer's profile and cost parameters stand.  The oracle needs no
switch: the memo-free path already exists as ``plan_sql``.  Every
statement a server of either standard federation would be sent is asked
twice and compared with the oracle, before and after every kind of
mutation an optimizer can see.
"""

import pytest

import repro.fed.integrator as integrator_module
from repro.fed import decompose
from repro.harness import (
    build_federation,
    build_replica_federation,
    run_phase_sweep,
)
from repro.sqlengine import Database, Optimizer, plan_sql
from repro.sqlengine.database import STATEMENT_CACHE_SIZE
from repro.workload import TEST_SCALE, build_workload
from repro.workload.queries import EXTENDED_QUERY_TYPES


def _described(candidates):
    return [(c.signature, c.cost) for c in candidates]


def _statements(deployment):
    """(database, sql) for every QT1-QT5 fragment x candidate server."""
    workload = [
        template.instance(instance, 7)
        for template in EXTENDED_QUERY_TYPES
        for instance in range(2)
    ]
    asked = []
    for instance in workload:
        for fragment in decompose(instance.sql, deployment.registry).fragments:
            for server in fragment.candidate_servers:
                wrapper = deployment.meta_wrapper.wrappers[server]
                asked.append(
                    (
                        deployment.servers[server].database,
                        wrapper.translate(fragment.sql),
                    )
                )
    assert asked
    return asked


def _assert_matches_oracle(asked):
    for database, sql in asked:
        oracle = _described(
            plan_sql(sql, database.catalog, database.profile)
        )
        assert _described(database.explain(sql)) == oracle, sql
        assert _described(database.explain(sql)) == oracle, sql


def _load_rows(database):
    table = database.storage.table("customer")
    database.load_rows("customer", [table.rows[0]] * 500)


def _rescale_stats(database):
    stats = database.catalog.lookup("orders").stats
    database.catalog.update_stats("orders", stats.scaled(0.01))


#: Every kind of mutation an optimizer can see, with the table it needs.
MUTATIONS = (
    ("customer", _load_rows),
    ("orders", _rescale_stats),
)


@pytest.mark.parametrize("build", [build_federation, build_replica_federation])
def test_explain_equals_the_memo_free_oracle(build):
    # Own databases: the mutations below must not reach shared fixtures.
    deployment = build(scale=TEST_SCALE)
    asked = _statements(deployment)
    _assert_matches_oracle(asked)
    for table, mutate in MUTATIONS:
        hosts = [
            server.database
            for server in deployment.servers.values()
            if server.database.catalog.has_table(table)
        ]
        assert hosts
        for database in hosts:
            version = database.catalog.version
            mutate(database)
            assert database.catalog.version > version
        _assert_matches_oracle(asked)


def test_cache_is_bounded(tiny_db):
    for bound in range(10 * STATEMENT_CACHE_SIZE):
        tiny_db.explain(f"SELECT COUNT(*) FROM dept WHERE budget > {bound}")
        assert tiny_db.statement_cache_stats()["entries"] <= STATEMENT_CACHE_SIZE
    stats = tiny_db.statement_cache_stats()
    assert stats == {
        "entries": STATEMENT_CACHE_SIZE,
        "hits": 0,
        "misses": 10 * STATEMENT_CACHE_SIZE,
    }
    # Least recently used goes first: the newest text is still there.
    tiny_db.explain(
        f"SELECT COUNT(*) FROM dept WHERE budget > {10 * STATEMENT_CACHE_SIZE - 1}"
    )
    assert tiny_db.statement_cache_stats()["hits"] == 1


def test_returned_list_is_the_callers(tiny_db):
    sql = "SELECT * FROM emp WHERE salary > 5000"
    first = tiny_db.explain(sql)
    expected = _described(first)
    first.clear()
    second = tiny_db.explain(sql)
    second.reverse()
    assert _described(tiny_db.explain(sql)) == expected
    assert tiny_db.statement_cache_stats()["hits"] == 2


def test_swapped_catalog_of_equal_version_is_not_served_old_plans(tiny_db):
    sql = "SELECT COUNT(*) FROM emp WHERE salary > 5000"
    before = tiny_db.explain(sql)[0]
    other = tiny_db.catalog.stats_only_clone()
    while other.version < tiny_db.catalog.version:
        other.update_stats("emp", other.lookup("emp").stats.scaled(0.1))
    assert other.version == tiny_db.catalog.version
    tiny_db.catalog = other
    after = tiny_db.explain(sql)[0]
    assert after.cost != before.cost
    assert _described([after]) == _described(
        plan_sql(sql, other, tiny_db.profile)[:1]
    )


def test_simulated_copy_is_not_served_its_sources_plans(sample_databases):
    source = sample_databases["S1"]
    sql = "SELECT COUNT(*) FROM orders WHERE totalprice > 5000"
    source_plans = _described(source.explain(sql))
    clone = Database.stats_only_copy(source)
    assert clone.optimizer is source.optimizer
    assert _described(clone.explain(sql)) == source_plans
    stats = clone.catalog.lookup("orders").stats
    clone.catalog.update_stats("orders", stats.scaled(0.01))
    rescaled = _described(clone.explain(sql))
    assert rescaled != source_plans
    assert rescaled == _described(
        plan_sql(sql, clone.catalog, clone.profile)
    )
    assert _described(source.explain(sql)) == source_plans


def test_phase_sweep_optimizes_each_statement_once(monkeypatch):
    """Recalibrations re-price; they send nothing back to an optimizer."""
    explained = set()
    optimized = []
    decomposed = []
    explain = Database.explain
    optimize = Optimizer.optimize
    decompose_ = integrator_module.decompose

    def recording_explain(self, sql):
        explained.add((self.name, sql))
        return explain(self, sql)

    def counting_optimize(self, block):
        optimized.append(block)
        return optimize(self, block)

    def counting_decompose(sql, registry):
        decomposed.append(sql)
        return decompose_(sql, registry)

    monkeypatch.setattr(Database, "explain", recording_explain)
    monkeypatch.setattr(Optimizer, "optimize", counting_optimize)
    monkeypatch.setattr(integrator_module, "decompose", counting_decompose)

    deployment = build_federation(scale=TEST_SCALE)
    workload = build_workload(instances_per_type=2, seed=7)
    run_phase_sweep(deployment, workload)

    assert deployment.qcc.recalibrations > 1
    assert sorted(decomposed) == sorted({i.sql for i in workload})
    assert len(optimized) == len(explained)
    stats = [
        server.database.statement_cache_stats()
        for server in deployment.servers.values()
    ]
    assert sum(s["misses"] for s in stats) == len(explained)
    assert sum(s["hits"] for s in stats) > 10 * len(explained)
