"""End-to-end integration tests: II + MW + QCC on a live federation."""

import pytest

from repro.baselines import qcc_deployment, uncalibrated_deployment
from repro.harness import run_workload_once
from repro.sim import OutageSchedule
from repro.sqlengine import rows_equal_unordered
from repro.workload import QT1, QT2, TEST_SCALE, build_workload
from tests.executions import noted_executions


@pytest.fixture()
def deployment(sample_databases):
    return qcc_deployment(scale=TEST_SCALE, prebuilt_databases=sample_databases)


class TestCorrectness:
    def test_every_workload_query_matches_direct_execution(
        self, deployment, sample_databases
    ):
        for instance in build_workload(instances_per_type=2):
            federated = deployment.integrator.submit(
                instance.sql, label=instance.label
            )
            direct = sample_databases["S1"].run(instance.sql)
            assert rows_equal_unordered(federated.rows, direct.rows), (
                instance.query_type
            )

    def test_results_identical_across_routed_servers(self, sample_databases):
        """Replica servers are interchangeable for correctness.  It needs
        every server's plan, so the identity calibration prices them:
        QCC does not explain a server its band cannot reach."""
        deployment = uncalibrated_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        instance = QT1.instance(0)
        results = []
        for server in ("S1", "S2", "S3"):
            _, plans = deployment.integrator.compile(instance.sql)
            matching = [p for p in plans if p.servers == frozenset({server})]
            assert matching, server
            results.append(
                deployment.servers[server]
                .execute_plan(matching[0].choices[0].plan, 0.0)
                .rows
            )
        assert rows_equal_unordered(results[0], results[1])
        assert rows_equal_unordered(results[0], results[2])


class TestCalibrationLearning:
    def test_factor_converges_to_observed_ratio(self, deployment):
        """After a stable workload, calibrated cost ≈ observed time."""
        instance = QT2.instance(0)
        deployment.set_load({"S1": 0.0, "S2": 0.0, "S3": 0.7})
        log = noted_executions(deployment.meta_wrapper)
        for _ in range(4):
            deployment.integrator.submit(instance.sql, label="QT2")
        deployment.qcc.recalibrate(deployment.clock.now)

        last = log[-1]
        factor = deployment.qcc.factor(last.server, last.fragment_signature)
        observed_ratio = last.observed_ms / last.estimated_total
        assert factor == pytest.approx(observed_ratio, rel=0.5)

    def test_loaded_server_gets_higher_factor(self, deployment):
        deployment.set_load({"S1": 0.0, "S2": 0.0, "S3": 0.85})
        # Force traffic to every server via probes + direct executions.
        deployment.qcc.probe_servers(deployment.clock.now)
        deployment.qcc.recalibrate(deployment.clock.now)
        factors = deployment.qcc.calibrator.server_factors()
        assert factors["S3"] > factors["S1"]

    def test_ii_workload_factor_learned(self, deployment):
        for instance in build_workload(instances_per_type=2):
            deployment.integrator.submit(instance.sql, label=instance.label)
        deployment.qcc.recalibrate(deployment.clock.now)
        assert deployment.qcc.ii_factor() > 0
        assert deployment.qcc.ii_calibrator.sample_count >= 0


class TestAdaptiveRouting:
    def test_routing_shifts_away_from_loaded_server(self):
        # Purpose-built specs: S3 is fastest but collapses under load,
        # S1/S2 are slower but load-immune; identical links so network
        # noise cannot mask the crossover at tiny data scale.
        from repro.harness import ServerSpec

        specs = tuple(
            ServerSpec(
                name,
                cpu_speed=speed,
                io_speed=speed,
                cpu_sensitivity=sens,
                io_sensitivity=sens,
                latency_ms=2.0,
                bandwidth_mbps=100.0,
            )
            for name, speed, sens in (
                ("S1", 1.0, 0.05),
                ("S2", 1.0, 0.05),
                ("S3", 2.0, 0.99),
            )
        )
        deployment = qcc_deployment(scale=TEST_SCALE, specs=specs)
        workload = build_workload(instances_per_type=3)
        # Baseline: everything unloaded, queries concentrate on S3.
        run_workload_once(deployment, workload)
        deployment.qcc.recalibrate(deployment.clock.now)
        baseline = run_workload_once(deployment, workload)
        s3_share_before = _server_share(baseline, "S3")

        # Load S3 heavily and exaggerate its contention; re-learn.
        deployment.set_load({"S3": 0.9})
        deployment.clock.advance(3000.0)
        deployment.qcc.probe_servers(deployment.clock.now)
        for _ in range(2):
            run_workload_once(deployment, workload)
            deployment.qcc.recalibrate(deployment.clock.now)
        adapted = run_workload_once(deployment, workload)
        s3_share_after = _server_share(adapted, "S3")
        assert s3_share_after < s3_share_before

    def test_uncalibrated_system_does_not_adapt(self, sample_databases):
        deployment = uncalibrated_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        workload = build_workload(instances_per_type=2)
        before = run_workload_once(deployment, workload)
        deployment.set_load({"S3": 0.9})
        after = run_workload_once(deployment, workload)
        assert _server_share(before, "S3") == _server_share(after, "S3")


def _server_share(outcomes, server):
    hits = sum(1 for o in outcomes if server in o.servers)
    return hits / len(outcomes)


class TestAvailability:
    def test_failover_and_recovery(self, sample_databases):
        outage = OutageSchedule([(0.0, 50_000.0)])
        deployment = qcc_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        # Replace S3's availability after build (mid-life outage).
        deployment.servers["S3"].availability = outage

        instance = QT1.instance(0)
        result = deployment.integrator.submit(instance.sql, label="QT1")
        assert "S3" not in result.servers
        assert result.row_count > 0

        # After the outage, a daemon probe readmits S3.
        deployment.clock.advance_to(60_000.0)
        deployment.qcc.probe_servers(deployment.clock.now)
        assert deployment.qcc.is_available("S3", deployment.clock.now)
        _, plans = deployment.integrator.compile(instance.sql)
        assert any("S3" in p.servers for p in plans)

    def test_down_event_recorded_from_error_log(self, sample_databases):
        deployment = qcc_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        deployment.qcc.record_error("S2", 10.0)
        assert "S2" in deployment.qcc.availability.down_servers()
        _, plans = deployment.integrator.compile(QT1.instance(0).sql)
        assert all("S2" not in p.servers for p in plans)


class TestTransparency:
    def test_ii_optimizer_has_no_qcc_dependency(self):
        """The paper's transparency claim: the global optimizer module
        never imports QCC — influence flows only through costs — and
        the integrator knows the calibration seam, not QCC."""
        import repro.fed.global_optimizer as go
        import repro.fed.integrator as integrator_module

        assert "repro.core" not in go.__dict__.get("__builtins__", {})
        source_go = open(go.__file__).read()
        assert "from ..core" not in source_go
        assert "import repro.core" not in source_go
        source_int = open(integrator_module.__file__).read()
        assert [
            line for line in source_int.splitlines() if ".core" in line
        ] == ["from ..core.calibration import Calibration"]
