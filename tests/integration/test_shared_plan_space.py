"""Which servers of a federation share a fragment's plan space, and that
each still explains the fragment as it would alone.

The meta-wrapper asks a fragment's candidate servers back to back.  In
the three-server topology every server holds every table, so all of them
share one parse, one bind and one set of plan nodes per fragment text; in
the replica topology S1/R1 hold equal copies of one table group and
S2/R2 of the other, so each pair shares and the pairs never do.  Either
way every server's answer is the memo-free oracle's (``plan_sql``):
signatures, ``PlanCost ==`` and order.
"""

from __future__ import annotations

import collections
import itertools

import pytest

from repro.harness import build_federation, build_replica_federation
from repro.sqlengine import plan_sql
from repro.sqlengine import database as database_module
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES
from repro.wrappers import RelationalWrapper


def _node_ids(candidates):
    ids, stack = set(), [c.plan for c in candidates]
    while stack:
        node = stack.pop()
        ids.add(id(node))
        stack.extend(node.children())
    return ids


def _explained(deployment, monkeypatch):
    """(server, text) -> candidates for every fragment QT1-QT5 send a
    server, and the binds each text cost across servers."""
    answers = {}
    binds = collections.Counter()
    plans, bind = RelationalWrapper.plans, database_module.bind

    def recording_plans(self, fragment_sql, t_ms):
        before = binds[None]
        candidates = plans(self, fragment_sql, t_ms)
        sql = self.translate(fragment_sql)
        answers[self.server.name, sql] = candidates
        binds[sql] += binds[None] - before
        return candidates

    def counting_bind(statement, catalog):
        binds[None] += 1
        return bind(statement, catalog)

    monkeypatch.setattr(RelationalWrapper, "plans", recording_plans)
    monkeypatch.setattr(database_module, "bind", counting_bind)
    for template in EXTENDED_QUERY_TYPES:
        for instance in range(2):
            deployment.integrator.submit(template.instance(instance).sql)
    monkeypatch.undo()
    return answers, binds


@pytest.mark.parametrize(
    "build, groups",
    [
        (build_federation, [("S1", "S2", "S3")]),
        (build_replica_federation, [("S1", "R1"), ("S2", "R2")]),
    ],
    ids=["three-server", "replica"],
)
def test_servers_with_equal_catalogs_share_and_plan_as_if_alone(
    build, groups, monkeypatch
):
    deployment = build(scale=TEST_SCALE)
    servers = deployment.servers
    group_of = {name: group for group in groups for name in group}
    for one, other in itertools.combinations(sorted(servers), 2):
        equal = servers[one].database.catalog.content() == (
            servers[other].database.catalog.content()
        )
        assert equal == (group_of[one] == group_of[other]), (one, other)

    answers, binds = _explained(deployment, monkeypatch)
    by_text = collections.defaultdict(dict)
    for (name, sql), candidates in answers.items():
        db = servers[name].database
        assert [(c.signature, c.cost) for c in candidates] == [
            (c.signature, c.cost)
            for c in plan_sql(sql, db.catalog, db.profile)
        ], (name, sql)
        by_text[sql][name] = _node_ids(candidates)

    assert len(by_text) >= len(EXTENDED_QUERY_TYPES)
    for sql, nodes_at in by_text.items():
        group = group_of[next(iter(nodes_at))]
        assert set(nodes_at) == set(group), sql  # every host was asked
        assert len(nodes_at) > 1
        for one, other in itertools.combinations(nodes_at, 2):
            assert nodes_at[one] & nodes_at[other], (sql, one, other)
    # One bind per text: the servers of a group took turns on it.
    assert all(binds[sql] == 1 for sql in by_text)


def test_the_registry_keeps_its_copy_when_a_host_analyzes():
    deployment = build_federation(scale=TEST_SCALE)
    registered = deployment.registry.global_catalog.lookup("customer")
    before = registered.stats
    host = deployment.servers["S1"].database
    table = host.storage.table("customer")
    host.load_rows("customer", list(table.rows[:10]))
    assert host.catalog.lookup("customer").stats.row_count == len(table.rows)
    assert deployment.registry.global_catalog.lookup("customer") is registered
    assert registered.stats is before
    assert before.row_count == len(table.rows) - 10
