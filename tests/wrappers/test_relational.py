"""Unit tests for the relational wrapper."""

import pytest

from repro.sim import MutableLoad, RemoteServer, ServerUnavailable, OutageSchedule
from repro.sqlengine import Database, populate
from repro.wrappers import RelationalWrapper


@pytest.fixture()
def wrapper(tiny_specs):
    db = Database("srv")
    populate(db, tiny_specs, seed=42)
    return RelationalWrapper(RemoteServer("srv", db, load=MutableLoad()))


class TestWrapper:
    def test_plans_return_candidates(self, wrapper):
        plans = wrapper.plans("SELECT COUNT(*) FROM emp", 0.0)
        assert plans
        assert plans[0].cost.total > 0

    def test_execute_returns_remote_execution(self, wrapper):
        plan = wrapper.plans("SELECT COUNT(*) FROM emp", 0.0)[0].plan
        execution = wrapper.execute(plan, 0.0)
        assert execution.rows == [(300,)]
        assert execution.observed_ms > 0

    def test_translate_passes_nicknames_through(self, wrapper):
        sql = "SELECT COUNT(*) FROM emp e WHERE e.salary > 1"
        assert wrapper.translate(sql) == sql

    def test_ping(self, wrapper):
        assert wrapper.ping(0.0) > 0

    def test_probe_ratio(self, wrapper):
        estimated, observed = wrapper.probe_ratio(0.0)
        assert estimated > 0
        assert observed > estimated  # network on top of processing

    def test_unavailable_propagates(self, tiny_specs):
        db = Database("srv")
        populate(db, tiny_specs, seed=42)
        server = RemoteServer(
            "srv", db, availability=OutageSchedule([(0.0, 100.0)])
        )
        wrapper = RelationalWrapper(server)
        with pytest.raises(ServerUnavailable):
            wrapper.plans("SELECT COUNT(*) FROM emp", 50.0)

    def test_server_name(self, wrapper):
        assert wrapper.server_name == "srv"
        assert wrapper.source_type == "relational"
