"""Unit tests for traffic-induced load (the Section 4 hot-spot model)."""

import pytest

import repro.sim.load as load_module
from repro.sim import InducedLoad, MutableLoad


class TestInducedLoad:
    def test_idle_is_base(self):
        load = InducedLoad(base=MutableLoad(0.2))
        assert load.level(0.0) == pytest.approx(0.2)

    def test_work_raises_level(self):
        load = InducedLoad(gain=0.01)
        before = load.level(0.0)
        load.note_work(0.0, 50.0)
        assert load.level(0.0) > before

    def test_decay_over_time(self):
        load = InducedLoad(gain=0.01, decay_ms=100.0)
        load.note_work(0.0, 50.0)
        hot = load.level(0.0)
        cooled = load.level(1_000.0)  # ten time constants later
        assert cooled < hot * 0.01 + 0.01

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(load_module, "INDUCED_CAP", 0.5)
        load = InducedLoad(gain=1.0)
        load.note_work(0.0, 1e9)
        assert load.level(0.0) == 0.5

    def test_base_plus_induced_bounded(self):
        base = MutableLoad(0.9)
        load = InducedLoad(gain=1.0, base=base)
        load.note_work(0.0, 1e9)
        assert load.level(0.0) < 0.95

    def test_accumulates(self):
        load = InducedLoad(gain=0.001, decay_ms=1e9)
        load.note_work(0.0, 10.0)
        one = load.level(0.0)
        load.note_work(0.0, 10.0)
        assert load.level(0.0) > one

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            InducedLoad(gain=-1.0)
        with pytest.raises(ValueError):
            InducedLoad(decay_ms=0.0)


class TestServerFeedback:
    def test_repeated_queries_heat_up_server(self, tiny_specs):
        from repro.sim import RemoteServer
        from repro.sqlengine import Database, populate

        db = Database("srv")
        populate(db, tiny_specs, seed=42)
        load = InducedLoad(gain=0.05, decay_ms=10_000.0)
        server = RemoteServer("srv", db, load=load)
        plan = server.explain("SELECT COUNT(*) FROM emp", 0.0)[0].plan

        first = server.execute_plan(plan, 0.0).processing_ms
        for _ in range(10):
            server.execute_plan(plan, 0.0)
        heated = server.execute_plan(plan, 0.0).processing_ms
        assert heated > first

    def test_cooldown_restores_speed(self, tiny_specs):
        from repro.sim import RemoteServer
        from repro.sqlengine import Database, populate

        db = Database("srv")
        populate(db, tiny_specs, seed=42)
        load = InducedLoad(gain=0.05, decay_ms=500.0)
        server = RemoteServer("srv", db, load=load)
        plan = server.explain("SELECT COUNT(*) FROM emp", 0.0)[0].plan
        for _ in range(10):
            server.execute_plan(plan, 0.0)
        hot = server.execute_plan(plan, 0.0).processing_ms
        cooled = server.execute_plan(plan, 50_000.0).processing_ms
        assert cooled < hot
