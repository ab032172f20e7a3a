"""Unit tests for federation builders."""


import pytest

from repro.baselines import FixedAssignment
from repro.core import Calibration, QCCConfig
from repro.harness import (
    DEFAULT_SERVER_SPECS,
    build_federation,
    build_replica_federation,
)
from repro.workload import TEST_SCALE

ALL_TABLES = ["customer", "lineitem", "orders", "product", "supplier"]
GROUP_A = ["customer", "orders"]
GROUP_B = ["lineitem", "product", "supplier"]

#: builder, servers in spec order -> hosted tables, nickname -> hosts in
#: registration order (the first one supplied the global definition).
TOPOLOGIES = {
    "triple": (
        build_federation,
        {"S1": ALL_TABLES, "S2": ALL_TABLES, "S3": ALL_TABLES},
        {table: ["S1", "S2", "S3"] for table in ALL_TABLES},
    ),
    "replica": (
        build_replica_federation,
        {"S1": GROUP_A, "R1": GROUP_A, "S2": GROUP_B, "R2": GROUP_B},
        {
            **{table: ["S1", "R1"] for table in GROUP_A},
            **{table: ["S2", "R2"] for table in GROUP_B},
        },
    ),
}


class TestServerSpecs:
    def test_three_servers(self):
        assert [s.name for s in DEFAULT_SERVER_SPECS] == ["S1", "S2", "S3"]

    def test_s3_most_powerful(self):
        specs = {s.name: s for s in DEFAULT_SERVER_SPECS}
        assert specs["S3"].cpu_speed > specs["S1"].cpu_speed
        assert specs["S3"].io_speed > specs["S2"].io_speed

    def test_s3_cpu_load_sensitive_io_insensitive(self):
        specs = {s.name: s for s in DEFAULT_SERVER_SPECS}
        assert specs["S3"].cpu_sensitivity > specs["S1"].cpu_sensitivity
        assert specs["S3"].io_sensitivity < specs["S1"].io_sensitivity


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestTopologyIsData:
    """The one assembler reproduces both deployments exactly."""

    @pytest.fixture()
    def built(self, topology):
        build, hosted, placements = TOPOLOGIES[topology]
        return build(scale=TEST_SCALE), hosted, placements

    def test_servers_and_their_tables(self, built):
        deployment, hosted, _ = built
        assert list(deployment.servers) == list(hosted)
        assert [spec.name for spec in deployment.specs] == list(hosted)
        assert list(deployment.loads) == list(hosted)
        assert deployment.meta_wrapper.server_names() == sorted(hosted)
        for name, tables in hosted.items():
            catalog = deployment.servers[name].database.catalog
            assert catalog.table_names() == tables

    def test_registry_placements_and_definition_owners(self, built):
        deployment, _, placements = built
        registry = deployment.registry
        assert registry.nicknames() == sorted(placements)
        for nickname, hosts in placements.items():
            assert registry.placements(nickname) == hosts
            owner = deployment.servers[hosts[0]].database.catalog
            assert (
                registry.global_catalog.lookup(nickname).stats.row_count
                == owner.lookup(nickname).stats.row_count
            )

    def test_servers_follow_their_specs(self, built):
        deployment, _, _ = built
        for spec in deployment.specs:
            server = deployment.servers[spec.name]
            assert server.database.profile == spec.profile()
            assert server.contention == spec.contention()
            assert server.link.latency_ms == spec.latency_ms
            assert server.link.bandwidth_mbps == spec.bandwidth_mbps
            assert server.load is deployment.loads[spec.name]

    def test_replica_specs_derive_from_their_origins(self, built):
        deployment, _, _ = built
        specs = {spec.name: spec for spec in deployment.specs}
        for replica, origin, latency_ms in (
            ("R1", "S1", 10.0), ("R2", "S2", 14.0),
        ):
            if replica not in specs:
                continue
            assert specs[replica].latency_ms == latency_ms
            assert specs[replica].cpu_speed == specs[origin].cpu_speed * 0.93
            assert specs[replica].io_speed == specs[origin].io_speed * 0.93
        for origin in DEFAULT_SERVER_SPECS:
            if origin.name in specs:
                assert specs[origin.name] == origin

    def test_qcc_watches_every_server(self, built):
        deployment, hosted, _ = built
        assert deployment.integrator.qcc is deployment.qcc
        assert deployment.meta_wrapper.qcc is deployment.qcc
        assert list(deployment.qcc.availability.snapshot()) == list(hosted)


class TestBuildFederation:
    def test_structure(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        assert deployment.server_names() == ["S1", "S2", "S3"]
        assert deployment.qcc is not None
        assert deployment.integrator.qcc is deployment.qcc
        assert deployment.meta_wrapper.qcc is deployment.qcc

    def test_without_qcc(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, calibration=Calibration(),
            prebuilt_databases=sample_databases,
        )
        # Un-calibrated means the identity calibration, not "no object".
        assert type(deployment.qcc) is Calibration
        assert deployment.integrator.qcc is deployment.qcc
        assert deployment.meta_wrapper.qcc is deployment.qcc

    def test_full_replication(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        for nickname in deployment.registry.nicknames():
            assert deployment.registry.servers_for(nickname) == frozenset(
                {"S1", "S2", "S3"}
            )

    def test_replicas_identical(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        rows = {
            name: list(server.database.storage.table("customer").rows)
            for name, server in deployment.servers.items()
        }
        assert rows["S1"] == rows["S2"] == rows["S3"]

    def test_set_load(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        deployment.set_load({"S1": 0.5})
        assert deployment.servers["S1"].current_load(0.0) == 0.5
        assert deployment.servers["S2"].current_load(0.0) == 0.0

    def test_router_wiring(self, sample_databases):
        # The calibration handed in is the one that routes, everywhere.
        router = FixedAssignment({"QT1": "S1"})
        deployment = build_federation(
            scale=TEST_SCALE,
            calibration=router,
            prebuilt_databases=sample_databases,
        )
        assert deployment.qcc is router
        assert deployment.integrator.qcc is router
        assert deployment.meta_wrapper.qcc is router

    def test_calibration_and_qcc_config_exclude_each_other(self):
        with pytest.raises(ValueError, match="not both"):
            build_federation(
                scale=TEST_SCALE,
                calibration=Calibration(),
                qcc_config=QCCConfig(),
            )


class TestReplicaFederation:
    def test_structure(self):
        deployment = build_replica_federation(scale=TEST_SCALE)
        assert deployment.server_names() == ["R1", "R2", "S1", "S2"]
        assert deployment.registry.servers_for("orders") == frozenset(
            {"S1", "R1"}
        )
        assert deployment.registry.servers_for("lineitem") == frozenset(
            {"S2", "R2"}
        )

    def test_replica_data_matches_origin(self):
        deployment = build_replica_federation(scale=TEST_SCALE)
        origin = list(
            deployment.servers["S1"].database.storage.table("orders").rows
        )
        replica = list(
            deployment.servers["R1"].database.storage.table("orders").rows
        )
        assert origin == replica
