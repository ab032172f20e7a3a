"""Tests for the epoch-invalidated compiled-plan cache."""

import pytest

from repro.core import Calibration, CalibrationEpoch
from repro.fed import (
    PlanCache,
    ReplicaManager,
    plan_cache,
    plan_key,
)
from repro.harness import build_federation
from repro.workload import TEST_SCALE

SQL = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey "
    "WHERE o.totalprice > 5000 GROUP BY o.priority"
)
SINGLE = "SELECT COUNT(*) FROM supplier"


@pytest.fixture()
def deployment(sample_databases):
    return build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    )


@pytest.fixture()
def plain_deployment(sample_databases):
    return build_federation(
        scale=TEST_SCALE,
        calibration=Calibration(),
        prebuilt_databases=sample_databases,
    )


class TestPlanCacheUnit:
    """Direct cache mechanics; entries hold opaque sentinels."""

    def _cache(self):
        epoch = CalibrationEpoch()
        return PlanCache(epoch), epoch

    def test_miss_then_hit(self):
        cache, _ = self._cache()
        key = plan_key("q1")
        assert cache.get(key, 0.0) is None
        cache.put(key, "decomposed", ["plan"])
        entry = cache.get(key, 1.0)
        assert entry is not None
        assert entry.plans == ("plan",)
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_epoch_bump_invalidates(self):
        cache, epoch = self._cache()
        key = plan_key("q1")
        cache.put(key, "d", ["p"], topology=3)
        epoch.bump()
        assert cache.get(key, 1.0) is None
        assert cache.invalidations == 1
        # The entry keeps its slot for re-pricing: the decomposition is
        # good for as long as the topology it was made under.
        assert len(cache) == 1
        assert cache.decomposition(key, 3) == "d"
        assert cache.decomposition(key, 4) is None
        assert cache.decomposition(plan_key("other"), 3) is None
        cache.put(key, "d", ["p2"], topology=3)
        assert cache.get(key, 1.0).plans == ("p2",)
        assert (len(cache), cache.invalidations, cache.evictions) == (1, 1, 0)

    def test_freshness_horizon_expires_entry(self):
        cache, _ = self._cache()
        key = plan_key("q1")
        cache.put(key, "d", ["p"], valid_until_ms=600.0)
        assert cache.get(key, 599.0) is not None
        assert cache.get(key, 600.0) is None
        assert cache.invalidations == 1

    def test_lru_eviction_order(self, monkeypatch):
        monkeypatch.setattr(plan_cache, "MAXSIZE", 2)
        cache, _ = self._cache()
        cache.put(plan_key("a"), "d", ["p"])
        cache.put(plan_key("b"), "d", ["p"])
        cache.get(plan_key("a"), 1.0)  # refresh a's recency
        cache.put(plan_key("c"), "d", ["p"])  # evicts b
        assert cache.get(plan_key("a"), 3.0) is not None
        assert cache.get(plan_key("b"), 3.0) is None
        assert cache.get(plan_key("c"), 3.0) is not None
        assert cache.evictions == 1

    def test_clear_counts_invalidations(self):
        cache, _ = self._cache()
        cache.put(plan_key("a"), "d", ["p"])
        cache.put(plan_key("b"), "d", ["p"])
        assert cache.clear() == 2
        assert cache.invalidations == 2
        assert len(cache) == 0

    def test_stats_snapshot(self):
        cache, epoch = self._cache()
        cache.put(plan_key("a"), "d", ["p"])
        cache.get(plan_key("a"), 1.0)
        epoch.bump()
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["epoch"] == 1
        assert stats["hits"] == 1

    def test_plan_key_normalises(self):
        assert plan_key("q") == plan_key("q", set())
        assert plan_key("q", {"S1", "S2"}) == plan_key("q", {"S2", "S1"})
        assert plan_key("q") != plan_key("q", {"S1"})


class TestIntegratorCaching:
    def test_repeat_compile_hits_and_matches(self, deployment):
        integrator = deployment.integrator
        _, first = integrator.compile(SQL)
        _, second = integrator.compile(SQL)
        assert integrator.plan_cache.hits == 1
        assert [p.describe() for p in first] == [
            p.describe() for p in second
        ]

    def test_recalibration_invalidates(self, deployment):
        integrator = deployment.integrator
        integrator.compile(SQL)
        deployment.qcc.recalibrate(deployment.clock.now)
        integrator.compile(SQL)
        assert integrator.plan_cache.hits == 0
        assert integrator.plan_cache.misses == 2
        assert integrator.plan_cache.invalidations == 1

    def test_availability_flip_invalidates(self, deployment):
        integrator = deployment.integrator
        _, before = integrator.compile(SQL)
        assert any("S3" in p.servers for p in before)
        deployment.qcc.record_error("S3", deployment.clock.now)
        _, after = integrator.compile(SQL)
        assert integrator.plan_cache.hits == 0
        assert all("S3" not in p.servers for p in after)

    def test_topology_change_invalidates(self, plain_deployment):
        integrator = plain_deployment.integrator
        integrator.compile(SQL)
        epoch_before = integrator.calibration_epoch.value
        table = plain_deployment.servers["S1"].database.catalog.lookup(
            "supplier"
        )
        plain_deployment.registry.register(
            "supplier_copy", "S1", table_def=table
        )
        assert integrator.calibration_epoch.value > epoch_before
        integrator.compile(SQL)
        assert integrator.plan_cache.hits == 0

    def test_submit_path_reuses_compilation(self, plain_deployment):
        integrator = plain_deployment.integrator
        integrator.submit(SQL)
        integrator.submit(SQL)
        assert integrator.plan_cache.hits == 1

    def test_cache_can_be_disabled(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            enable_plan_cache=False,
        )
        assert deployment.integrator.plan_cache is None
        result = deployment.integrator.submit(SINGLE)
        assert result.row_count == 1


class TestReplicaFreshnessHorizon:
    @pytest.fixture()
    def replicated(self, plain_deployment):
        manager = ReplicaManager(plain_deployment.registry, tolerance_ms=500.0)
        plain_deployment.integrator.replica_manager = manager
        return plain_deployment, manager

    def test_write_invalidates_tolerant_compilation(self, replicated):
        deployment, manager = replicated
        integrator = deployment.integrator
        integrator.compile(SINGLE, t_ms=0.0)
        manager.note_write("supplier", 100.0)
        integrator.compile(SINGLE, t_ms=200.0)
        assert integrator.plan_cache.hits == 0
        assert integrator.plan_cache.invalidations == 1

    def test_entry_expires_when_replicas_cross_tolerance(self, replicated):
        deployment, manager = replicated
        integrator = deployment.integrator
        manager.note_write("supplier", 100.0)
        # Compiled at t=200 with 500ms tolerance: replicas are 100ms
        # stale, still fresh, but will cross the tolerance at t=600.
        _, fresh_plans = integrator.compile(SINGLE, t_ms=200.0)
        assert any(
            server != "S1" for p in fresh_plans for server in p.servers
        )
        integrator.compile(SINGLE, t_ms=400.0)
        assert integrator.plan_cache.hits == 1
        _, late_plans = integrator.compile(SINGLE, t_ms=601.0)
        assert integrator.plan_cache.hits == 1  # horizon expired the entry
        assert all(p.servers == frozenset({"S1"}) for p in late_plans)

    def test_sync_invalidates(self, replicated):
        deployment, manager = replicated
        integrator = deployment.integrator
        manager.note_write("supplier", 100.0)
        integrator.compile(SINGLE, t_ms=700.0)
        manager.sync("supplier", "S2", deployment.servers, 800.0)
        _, plans = integrator.compile(SINGLE, t_ms=900.0)
        assert integrator.plan_cache.hits == 0
        assert any("S2" in p.servers for p in plans)

    def test_attach_after_construction_clears_cache(self, plain_deployment):
        integrator = plain_deployment.integrator
        integrator.compile(SINGLE)
        assert len(integrator.plan_cache) == 1
        integrator.replica_manager = ReplicaManager(
            plain_deployment.registry
        )
        assert len(integrator.plan_cache) == 0
