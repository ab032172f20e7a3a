"""Tests for replica currency tracking and staleness-tolerant routing."""

import pytest

from repro.core import Calibration
from repro.fed import FederationError, ReplicaManager, decompose
from repro.harness import build_federation
from repro.workload import TEST_SCALE

SQL = "SELECT COUNT(*) FROM supplier"


@pytest.fixture()
def deployment():
    # Its own databases: these tests write to supplier, and the shared
    # sample databases must keep their copies identical.
    deployment = build_federation(
        scale=TEST_SCALE, calibration=Calibration()
    )
    manager = ReplicaManager(deployment.registry)
    deployment.integrator.replica_manager = manager
    return deployment, manager


class TestReplicaManager:
    def test_default_origin_is_first_placement(self, deployment):
        _, manager = deployment
        assert manager.origin_of("supplier") == "S1"

    def test_set_origin_validates_placement(self, deployment):
        _, manager = deployment
        manager.set_origin("supplier", "S2")
        assert manager.origin_of("supplier") == "S2"
        with pytest.raises(FederationError):
            manager.set_origin("supplier", "S9")

    def test_origin_is_never_stale(self, deployment):
        _, manager = deployment
        manager.note_write("supplier", 100.0)
        assert manager.staleness_ms("supplier", "S1", 500.0) == 0.0

    def test_write_makes_replicas_stale(self, deployment):
        _, manager = deployment
        manager.note_write("supplier", 100.0)
        assert manager.staleness_ms("supplier", "S2", 500.0) == 400.0
        assert manager.staleness_ms("supplier", "S3", 500.0) == 400.0

    def test_staleness_anchored_to_oldest_unsynced_write(self, deployment):
        _, manager = deployment
        manager.note_write("supplier", 100.0)
        manager.note_write("supplier", 400.0)  # later write doesn't reset
        assert manager.staleness_ms("supplier", "S2", 500.0) == 400.0

    def test_sync_restores_currency_and_data(self, deployment):
        dep, manager = deployment
        # Real divergence: delete rows at the origin.
        dep.servers["S1"].database.run_dml(
            "DELETE FROM supplier WHERE suppkey <= 10"
        )
        manager.note_write("supplier", 100.0)
        copied = manager.sync("supplier", "S2", dep.servers, 200.0)
        assert copied == dep.servers["S1"].database.row_count("supplier")
        assert manager.staleness_ms("supplier", "S2", 999.0) == 0.0
        assert dep.servers["S2"].database.row_count("supplier") == copied

    def test_sync_origin_is_noop(self, deployment):
        dep, manager = deployment
        assert manager.sync("supplier", "S1", dep.servers, 0.0) == 0

    def test_stale_placements_listing(self, deployment):
        dep, manager = deployment
        manager.note_write("supplier", 100.0)
        stale = [
            server
            for server in dep.registry.placements("supplier")
            if manager.staleness_ms("supplier", server, 500.0) > 0
        ]
        assert stale == ["S2", "S3"]
        assert manager.origin_of("supplier") not in stale
        assert manager.worst_staleness("S2", 500.0) == 400.0

    def test_fresh_servers_intersection(self, deployment):
        dep, manager = deployment
        manager.note_write("supplier", 100.0)
        assert manager.fresh_servers(["supplier"], 500.0) is None
        for tolerance_ms, expected in (
            (1000.0, {"S1", "S2", "S3"}),  # within tolerance
            (100.0, {"S1"}),
        ):
            tolerant = ReplicaManager(dep.registry, tolerance_ms=tolerance_ms)
            tolerant.note_write("supplier", 100.0)
            fresh = tolerant.fresh_servers(["supplier"], 500.0)
            assert fresh == frozenset(expected)

    def test_freshness_horizon(self, deployment):
        dep, _ = deployment
        manager = ReplicaManager(dep.registry, tolerance_ms=500.0)
        fragments = decompose(SQL, dep.registry).fragments
        assert manager.freshness_horizon(fragments, 0.0) is None
        manager.note_write("supplier", 100.0)
        # Both replicas fell behind at 100 and cross the tolerance at 600.
        assert manager.freshness_horizon(fragments, 200.0) == 600.0
        assert manager.freshness_horizon(fragments, 600.0) is None
        manager.sync("supplier", "S2", dep.servers, 300.0)
        assert manager.freshness_horizon(fragments, 400.0) == 600.0
        manager.sync("supplier", "S3", dep.servers, 450.0)
        assert manager.freshness_horizon(fragments, 500.0) is None


def _tolerant(dep, tolerance_ms):
    """Attach a manager with *tolerance_ms* to the deployment."""
    manager = ReplicaManager(dep.registry, tolerance_ms=tolerance_ms)
    dep.integrator.replica_manager = manager
    return manager


class TestStalenessTolerantRouting:
    def test_stale_replicas_excluded_from_routing(self, deployment):
        dep, _ = deployment
        manager = _tolerant(dep, 1_000.0)
        manager.note_write("supplier", dep.clock.now)
        dep.clock.advance(5_000.0)
        result = dep.integrator.submit(SQL)
        assert result.servers == frozenset({"S1"})  # origin only

    def test_tolerant_query_uses_any_replica(self, deployment):
        dep, _ = deployment
        manager = _tolerant(dep, 1e9)
        manager.note_write("supplier", dep.clock.now)
        dep.clock.advance(5_000.0)
        result = dep.integrator.submit(SQL)
        # cheapest server wins as usual
        assert result.servers == frozenset({"S3"})

    def test_no_tolerance_means_no_filtering(self, deployment):
        dep, manager = deployment
        manager.note_write("supplier", dep.clock.now)
        result = dep.integrator.submit(SQL)
        assert result.servers == frozenset({"S3"})

    def test_sync_readmits_replica(self, deployment):
        dep, _ = deployment
        manager = _tolerant(dep, 1_000.0)
        manager.note_write("supplier", dep.clock.now)
        dep.clock.advance(5_000.0)
        manager.sync("supplier", "S3", dep.servers, dep.clock.now)
        result = dep.integrator.submit(SQL)
        assert result.servers == frozenset({"S3"})

