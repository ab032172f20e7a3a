"""Unit tests for the simulated remote server."""

import pytest

from repro.sim import (
    ContentionProfile,
    ErrorInjector,
    MutableLoad,
    NetworkLink,
    OutageSchedule,
    RemoteServer,
    ServerUnavailable,
)
from repro.sqlengine import Database, ServerProfile, populate


@pytest.fixture()
def server(tiny_specs):
    db = Database("srv", profile=ServerProfile("srv", cpu_speed=2.0, io_speed=2.0))
    populate(db, tiny_specs, seed=42)
    return RemoteServer(
        name="srv",
        database=db,
        contention=ContentionProfile(0.9, 0.9),
        load=MutableLoad(0.0),
        link=NetworkLink(latency_ms=5.0, bandwidth_mbps=100.0),
    )


SQL = "SELECT deptno, COUNT(*) FROM emp WHERE salary > 2000 GROUP BY deptno"


class TestExplain:
    def test_estimates_are_load_blind(self, server):
        base = server.explain(SQL, 0.0)[0].cost.total
        server.load.set(0.9)
        loaded = server.explain(SQL, 0.0)[0].cost.total
        assert base == loaded

    def test_raises_when_down(self, tiny_specs):
        db = Database("d")
        populate(db, tiny_specs, seed=42)
        server = RemoteServer(
            "d", db, availability=OutageSchedule([(0.0, 100.0)])
        )
        with pytest.raises(ServerUnavailable):
            server.explain(SQL, 50.0)
        assert server.explain(SQL, 150.0)


class TestExecute:
    def test_processing_increases_with_load(self, server):
        plan = server.explain(SQL, 0.0)[0].plan
        base = server.execute_plan(plan, 0.0)
        server.load.set(0.8)
        loaded = server.execute_plan(plan, 0.0)
        # M/M/1 with sensitivity 0.9 at level 0.8 -> multiplier ~3.6x.
        assert loaded.processing_ms > base.processing_ms * 2
        assert loaded.observed_ms > base.observed_ms

    def test_observed_monotone_in_load(self, server):
        plan = server.explain(SQL, 0.0)[0].plan
        samples = []
        for level in (0.0, 0.3, 0.6, 0.9):
            server.load.set(level)
            samples.append(server.execute_plan(plan, 0.0).observed_ms)
        assert samples == sorted(samples)

    def test_network_included(self, server):
        plan = server.explain(SQL, 0.0)[0].plan
        execution = server.execute_plan(plan, 0.0)
        assert execution.network_ms >= server.link.round_trip_ms(0.0)
        assert execution.observed_ms == pytest.approx(
            execution.processing_ms + execution.network_ms
        )

    def test_rows_returned(self, server):
        plan = server.explain(SQL, 0.0)[0].plan
        execution = server.execute_plan(plan, 0.0)
        assert execution.row_count == len(execution.rows) > 0
        assert execution.finished_ms == execution.started_ms + execution.observed_ms

    def test_transient_errors_raise(self, tiny_specs):
        db = Database("d")
        populate(db, tiny_specs, seed=42)
        server = RemoteServer("d", db, errors=ErrorInjector(0.99, seed=1, name="d"))
        plan = server.explain(SQL, 0.0)[0].plan
        with pytest.raises(ServerUnavailable) as err:
            for _ in range(20):
                server.execute_plan(plan, 0.0)
        assert err.value.transient


class TestProbes:
    def test_ping_returns_rtt(self, server):
        assert server.ping(0.0) == pytest.approx(10.0)

    def test_ping_raises_when_down(self, tiny_specs):
        db = Database("d")
        populate(db, tiny_specs, seed=42)
        server = RemoteServer("d", db, availability=OutageSchedule([(0.0, 10.0)]))
        with pytest.raises(ServerUnavailable):
            server.ping(5.0)

    def test_probe_query_ratio_reflects_load(self, server):
        est_base, obs_base = server.probe_query(0.0)
        server.load.set(0.85)
        est_loaded, obs_loaded = server.probe_query(0.0)
        assert est_base == est_loaded  # estimates stay load-blind
        assert obs_loaded > obs_base
        assert obs_loaded / est_loaded > obs_base / est_base

    def test_probe_uses_largest_table(self, server):
        est, _ = server.probe_query(0.0)
        # emp (300 rows) dominates dept (20); a count over emp costs more
        # than any plausible dept scan at this scale.
        dept_cost = server.database.explain("SELECT COUNT(*) FROM dept")[0].cost.total
        assert est > dept_cost
