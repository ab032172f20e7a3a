"""Which servers of a federation share a fragment's parse and bind, and
that each still explains the fragment as it would alone.

The meta-wrapper asks a fragment's candidate servers back to back.  In
the three-server topology every server holds every table, so every
fragment is its whole query and all of them plan the block the
decomposer made: the servers parse and bind nothing.  In the replica
topology S1/R1 hold equal copies of one table group and S2/R2 of the
other, so each pair shares one bind and the pairs never do.  Either way
each server builds its own plan nodes, and its answer is the memo-free
oracle's (``plan_sql``): signatures, ``PlanCost ==`` and order.
"""

from __future__ import annotations

import collections
import itertools

import pytest

from repro.core import Calibration
from repro.fed import decomposer as decomposer_module
from repro.harness import build_federation, build_replica_federation
from repro.sqlengine import plan_sql
from repro.sqlengine import database as database_module
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES
from repro.wrappers import RelationalWrapper


def _explained(deployment, monkeypatch):
    """(server, text) -> candidates for every fragment QT1-QT5 send a
    server; the parses and binds each text cost across servers; and the
    blocks the decomposer made (bound, or rebuilt from the text's shape),
    by the text of their statement."""
    answers = {}
    work = collections.Counter()
    decomposed = collections.Counter()
    plans = RelationalWrapper.plans
    parse, bind = database_module.parse, database_module.bind
    bind_shape = decomposer_module.bind_shape

    def recording_plans(self, fragment_sql, t_ms):
        before = work["parse"], work["bind"]
        candidates = plans(self, fragment_sql, t_ms)
        sql = self.translate(fragment_sql)
        answers[self.server.name, sql] = candidates
        work["parse", sql] += work["parse"] - before[0]
        work["bind", sql] += work["bind"] - before[1]
        return candidates

    def counting_parse(sql):
        work["parse"] += 1
        return parse(sql)

    def counting_bind(statement, catalog):
        work["bind"] += 1
        return bind(statement, catalog)

    def counting_bind_shape(sql, catalog):
        statement, block = bind_shape(sql, catalog)
        decomposed[statement.sql()] += 1
        return statement, block

    monkeypatch.setattr(RelationalWrapper, "plans", recording_plans)
    monkeypatch.setattr(database_module, "parse", counting_parse)
    monkeypatch.setattr(database_module, "bind", counting_bind)
    monkeypatch.setattr(decomposer_module, "bind_shape", counting_bind_shape)
    for template in EXTENDED_QUERY_TYPES:
        for instance in range(2):
            deployment.integrator.submit(template.instance(instance).sql)
    monkeypatch.undo()
    return answers, work, decomposed


@pytest.mark.parametrize(
    "build, groups, server_binds",
    [
        (build_federation, [("S1", "S2", "S3")], 0),
        (build_replica_federation, [("S1", "R1"), ("S2", "R2")], 1),
    ],
    ids=["three-server", "replica"],
)
def test_servers_with_equal_catalogs_share_and_plan_as_if_alone(
    build, groups, server_binds, monkeypatch
):
    # Every host must be asked: the identity calibration has no band.
    deployment = build(scale=TEST_SCALE, calibration=Calibration())
    servers = deployment.servers
    group_of = {name: group for group in groups for name in group}
    for one, other in itertools.combinations(sorted(servers), 2):
        equal = servers[one].database.catalog.content() == (
            servers[other].database.catalog.content()
        )
        assert equal == (group_of[one] == group_of[other]), (one, other)

    answers, work, decomposed = _explained(deployment, monkeypatch)
    by_text = collections.defaultdict(set)
    for (name, sql), candidates in answers.items():
        db = servers[name].database
        assert [(c.signature, c.cost) for c in candidates] == [
            (c.signature, c.cost)
            for c in plan_sql(sql, db.catalog, db.profile)
        ], (name, sql)
        by_text[sql].add(name)

    assert len(by_text) >= len(EXTENDED_QUERY_TYPES)
    for sql, asked in by_text.items():
        group = group_of[next(iter(asked))]
        assert asked == set(group), sql  # every host was asked
        assert len(asked) > 1
    # The servers of a group took turns on one bind per text, or on
    # none: in the three-server topology each text is a whole query,
    # whose block the decomposer made once.  A server whose catalog differs
    # from the registry's binds the decomposer's parse, never its own.
    for sql in by_text:
        assert work["bind", sql] == server_binds, sql
        if decomposed[sql]:
            assert work["parse", sql] == 0, sql
    if not server_binds:
        assert all(decomposed[sql] == 1 for sql in by_text)


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


def test_a_host_whose_statistics_moved_binds_the_query_itself(monkeypatch):
    # After S1 loads more rows its catalog content no longer equals the
    # registry's: it binds the decomposer's statement against its own
    # statistics, and S2 and S3 still take the decomposer's block.  The
    # identity calibration has every host asked.
    deployment = build_federation(scale=TEST_SCALE, calibration=Calibration())
    servers = deployment.servers
    host = servers["S1"].database
    host.load_rows("customer", list(host.storage.table("customer").rows[:10]))
    registry_content = deployment.registry.global_catalog.content()
    assert host.catalog.content() != registry_content
    assert servers["S2"].database.catalog.content() == registry_content

    answers, work, decomposed = _explained(deployment, monkeypatch)
    texts = set()
    for (name, sql), candidates in answers.items():
        db = servers[name].database
        assert [(c.signature, c.cost) for c in candidates] == [
            (c.signature, c.cost)
            for c in plan_sql(sql, db.catalog, db.profile)
        ], (name, sql)
        texts.add(sql)
    for sql in texts:
        assert decomposed[sql] == 1 and work["parse", sql] == 0, sql
