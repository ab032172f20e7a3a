"""Unit tests for DML at servers and update-storm generation."""

import pytest

from repro.sim import (
    InducedLoad,
    MutableLoad,
    RemoteServer,
    ServerUnavailable,
    OutageSchedule,
    UpdateStormDriver,
)
from repro.sqlengine import Database, populate


@pytest.fixture()
def server(tiny_specs):
    db = Database("srv")
    populate(db, tiny_specs, seed=42)
    return RemoteServer("srv", db, load=MutableLoad())


class TestServerDml:
    def test_execute_dml(self, server):
        execution = server.execute_dml(
            "UPDATE emp SET salary = salary + 1 WHERE deptno = 3", 0.0
        )
        assert execution.observed_ms > 0
        assert execution.rows == []
        assert execution.schema is None

    def test_dml_respects_availability(self, tiny_specs):
        db = Database("d")
        populate(db, tiny_specs, seed=42)
        server = RemoteServer(
            "d", db, availability=OutageSchedule([(0.0, 100.0)])
        )
        with pytest.raises(ServerUnavailable):
            server.execute_dml("DELETE FROM dept", 50.0)

    def test_dml_heats_induced_load(self, tiny_specs):
        db = Database("d")
        populate(db, tiny_specs, seed=42)
        load = InducedLoad(gain=0.05, decay_ms=100_000.0)
        server = RemoteServer("d", db, load=load)
        before = load.level(0.0)
        for _ in range(5):
            server.execute_dml("UPDATE emp SET salary = salary + 1", 0.0)
        assert load.level(0.0) > before

    def test_dml_slows_concurrent_queries(self, tiny_specs):
        db = Database("d")
        populate(db, tiny_specs, seed=42)
        load = InducedLoad(gain=0.05, decay_ms=100_000.0)
        server = RemoteServer("d", db, load=load)
        plan = server.explain("SELECT COUNT(*) FROM emp", 0.0)[0].plan
        cold = server.execute_plan(plan, 0.0).processing_ms
        for _ in range(10):
            server.execute_dml("UPDATE emp SET salary = salary + 1", 0.0)
        hot = server.execute_plan(plan, 0.0).processing_ms
        assert hot > cold


class TestUpdateStormDriver:
    def test_defaults_to_largest_table(self, server):
        driver = UpdateStormDriver(server)
        assert driver.table.name == "emp"  # 300 rows vs dept's 20

    def test_burst_executes_statements(self, server):
        driver = UpdateStormDriver(server)
        report = driver.burst(0.0, statements=4)
        assert report.statements == 4
        assert report.total_observed_ms > 0
        assert len(report.executions) == 4

    def test_burst_actually_mutates(self, server):
        before = server.database.run("SELECT SUM(salary) FROM emp").rows[0][0]
        UpdateStormDriver(server).sustained(0.0, 1_000.0, statements_per_burst=5)
        after = server.database.run("SELECT SUM(salary) FROM emp").rows[0][0]
        assert after != before

    def test_deterministic(self, tiny_specs):
        def totals(seed):
            db = Database("d")
            populate(db, tiny_specs, seed=42)
            srv = RemoteServer("d", db)
            driver = UpdateStormDriver(srv, seed=seed)
            driver.burst(0.0, statements=5)
            return srv.database.run("SELECT SUM(salary) FROM emp").rows[0][0]

        assert totals(1) == totals(1)
        assert totals(1) != totals(2)

    def test_sustained_respects_duration(self, server):
        driver = UpdateStormDriver(server)
        reports = driver.sustained(
            0.0, 1_000.0, statements_per_burst=1, burst_interval_ms=250.0
        )
        assert len(reports) == 4

    def test_storm_makes_estimates_stale(self, server):
        """Heavy updates without RUNSTATS leave the optimizer's
        statistics describing data that no longer exists — one of the
        estimate-vs-reality gaps QCC absorbs."""
        stats_before = server.database.catalog.lookup("emp").stats.row_count
        server.execute_dml("DELETE FROM emp WHERE empno <= 150", 0.0)
        stats_after = server.database.catalog.lookup("emp").stats.row_count
        assert stats_before == stats_after  # catalog is stale
        assert len(server.database.storage.table("emp")) == 150
