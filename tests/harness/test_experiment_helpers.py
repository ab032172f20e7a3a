"""Unit tests for experiment-runner helpers."""

import pytest

from repro.core import Calibration
from repro.harness import (
    build_federation,
    dynamic_assignment,
    estimate_on_servers,
    gains_by_phase,
    observe_on_servers,
    run_phase,
    run_query,
    run_workload_once,
)
from repro.harness.experiment import PhaseOutcome, QueryOutcome
from repro.workload import LOAD_LEVEL, PHASES, QT1, TEST_SCALE, build_workload


@pytest.fixture()
def deployment(sample_databases):
    return build_federation(
        scale=TEST_SCALE,
        calibration=Calibration(),
        prebuilt_databases=sample_databases,
    )


class TestObservationHelpers:
    def test_observe_covers_all_servers(self, deployment):
        observations = observe_on_servers(deployment, QT1.instance(0))
        assert set(observations) == {"S1", "S2", "S3"}
        assert all(v > 0 for v in observations.values())

    def test_estimates_load_blind(self, deployment):
        base = estimate_on_servers(deployment, QT1.instance(0))
        deployment.set_load({"S3": 0.9})
        loaded = estimate_on_servers(deployment, QT1.instance(0))
        assert base == loaded

    def test_observe_skips_down_servers(self, deployment):
        from repro.sim import OutageSchedule

        deployment.servers["S2"].availability = OutageSchedule([(0.0, 1e9)])
        observations = observe_on_servers(deployment, QT1.instance(0))
        assert set(observations) == {"S1", "S3"}

    def test_dynamic_assignment_single_server(self, deployment):
        servers = dynamic_assignment(deployment, QT1.instance(0))
        assert len(servers) == 1
        assert servers[0] in {"S1", "S2", "S3"}


class TestRunners:
    def test_run_query_outcome_fields(self, deployment):
        instance = QT1.instance(0)
        outcome = run_query(deployment, instance)
        assert not outcome.failed
        assert outcome.query_type == "QT1"
        assert outcome.response_ms > 0
        assert outcome.servers

    def test_run_query_marks_failures(self, sample_databases):
        from repro.sim import OutageSchedule

        deployment = build_federation(
            scale=TEST_SCALE,
            calibration=Calibration(),
            prebuilt_databases=sample_databases,
            availability={
                name: OutageSchedule([(0.0, 1e9)])
                for name in ("S1", "S2", "S3")
            },
        )
        outcome = run_query(deployment, QT1.instance(0))
        assert outcome.failed
        assert outcome.servers == ()

    def test_run_workload_once_order(self, deployment):
        workload = build_workload(instances_per_type=2)
        outcomes = run_workload_once(deployment, workload)
        assert [o.instance.sql for o in outcomes] == [
            q.sql for q in workload
        ]

    def test_run_phase_sets_loads(self, deployment):
        workload = build_workload(instances_per_type=1)
        run_phase(deployment, workload, PHASES[1])
        assert deployment.servers["S3"].current_load(0.0) == LOAD_LEVEL
        assert deployment.servers["S1"].current_load(0.0) == 0.0


class TestPhaseOutcome:
    def _outcome(self):
        outcome = PhaseOutcome(phase=PHASES[0])
        workload = build_workload(instances_per_type=1)
        outcome.outcomes = [
            QueryOutcome(workload[0], 10.0, ("S1",), 0),
            QueryOutcome(workload[1], 20.0, ("S1",), 0),
            QueryOutcome(workload[2], 30.0, ("S2",), 0),
            QueryOutcome(workload[3], 0.0, (), 0, failed=True),
        ]
        return outcome

    def test_mean_excludes_failures(self):
        assert self._outcome().mean_response_ms == pytest.approx(20.0)

    def test_failure_count(self):
        assert self._outcome().failure_count == 1

    def test_stats(self):
        stats = self._outcome().stats()
        assert stats.count == 3
        assert stats.maximum == 30.0


class TestGains:
    def test_gains_by_phase_alignment(self):
        base = {"Phase1": _phase_with_mean(100.0)}
        treat = {"Phase1": _phase_with_mean(60.0), "Phase9": _phase_with_mean(1.0)}
        gains = gains_by_phase(base, treat)
        assert gains == {"Phase1": pytest.approx(40.0)}


def _phase_with_mean(mean_ms):
    outcome = PhaseOutcome(phase=PHASES[0])
    instance = QT1.instance(0)
    outcome.outcomes = [QueryOutcome(instance, mean_ms, ("S1",), 0)]
    return outcome
