"""Unit tests for baseline deployment factories."""


from repro.baselines import (
    FixedAssignment,
    PreferredServer,
    fixed_assignment_deployment,
    preferred_server_deployment,
    qcc_deployment,
    uncalibrated_deployment,
)
from repro.core import Calibration, QueryCostCalibrator
from repro.workload import FIXED_ASSIGNMENT_1, TEST_SCALE

SQL = "SELECT COUNT(*) FROM customer"


class TestFactories:
    def test_fixed(self, sample_databases):
        deployment = fixed_assignment_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        # Identity costs, plus the frozen label -> server assignment.
        assert type(deployment.qcc) is FixedAssignment
        assert deployment.qcc.assignment == FIXED_ASSIGNMENT_1
        assert deployment.integrator.qcc is deployment.qcc
        deployment.integrator.submit(SQL, label="QT1")

    def test_fixed_routes_to_assigned_server(self, sample_databases):
        deployment = fixed_assignment_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        result = deployment.integrator.submit(SQL, label="QT1")
        assert result.plan.servers == frozenset({FIXED_ASSIGNMENT_1["QT1"]})

    def test_preferred(self, sample_databases):
        deployment = preferred_server_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        assert type(deployment.qcc) is PreferredServer
        # Unlabelled, and routed to S3 all the same.
        result = deployment.integrator.submit(SQL)
        assert result.plan.servers == frozenset({"S3"})

    def test_uncalibrated(self, sample_databases):
        deployment = uncalibrated_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        # The identity calibration, whose recommendation is the
        # cheapest plan.
        assert type(deployment.qcc) is Calibration

    def test_qcc(self, sample_databases):
        deployment = qcc_deployment(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        assert isinstance(deployment.qcc, QueryCostCalibrator)
        result = deployment.integrator.submit(SQL)
        assert deployment.qcc.execution_records >= 1
        assert result.row_count == 1
