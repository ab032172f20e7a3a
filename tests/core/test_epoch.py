"""Tests for the calibration epoch and its bump sources."""

from repro.core import (
    AvailabilityMonitor,
    CalibrationEpoch,
    CostCalibrator,
    QueryCostCalibrator,
)


class TestCalibrationEpoch:
    def test_monotonic(self):
        epoch = CalibrationEpoch()
        assert epoch.value == 0
        assert epoch.bump() == 1
        assert epoch.bump() == 2


class TestCalibratorBumps:
    def test_recalibrate_always_bumps(self):
        calibrator = CostCalibrator()
        before = calibrator.epoch.value
        calibrator.recalibrate()  # no samples: factors unchanged
        assert calibrator.epoch.value == before + 1

    def test_initial_factor_bumps_only_on_change(self):
        calibrator = CostCalibrator()
        calibrator.set_initial_factor("S1", 1.5)
        after_first = calibrator.epoch.value
        assert after_first > 0
        calibrator.set_initial_factor("S1", 1.5)  # no-op
        assert calibrator.epoch.value == after_first
        calibrator.set_initial_factor("S1", 2.5)
        assert calibrator.epoch.value == after_first + 1


class TestAvailabilityBumps:
    def _monitor(self):
        epoch = CalibrationEpoch()
        return AvailabilityMonitor(["S1", "S2"], epoch=epoch), epoch

    def test_error_bumps_on_down_transition(self):
        monitor, epoch = self._monitor()
        monitor.record_error("S1", 10.0)
        assert epoch.value == 1

    def test_success_bumps_on_recovery_and_rate_change(self):
        monitor, epoch = self._monitor()
        monitor.record_error("S1", 10.0)
        after_error = epoch.value
        monitor.record_success("S1", 20.0)  # back up + rate moves
        assert epoch.value > after_error

    def test_steady_successes_do_not_bump(self):
        monitor, epoch = self._monitor()
        monitor.record_success("S1", 10.0)
        monitor.record_success("S1", 20.0)
        monitor.record_success("S1", 30.0)
        assert epoch.value == 0  # success rate pinned at 1.0

    def test_probe_bumps_only_on_transition(self):
        monitor, epoch = self._monitor()
        monitor.record_probe("S1", 10.0, 5.0)  # already up
        assert epoch.value == 0
        monitor.record_probe("S1", 20.0, None)  # down transition
        assert epoch.value == 1
        monitor.record_probe("S1", 30.0, None)  # still down
        assert epoch.value == 1
        monitor.record_probe("S1", 40.0, 5.0)  # recovery
        assert epoch.value == 2


class TestQccEpoch:
    def test_shared_across_components(self):
        qcc = QueryCostCalibrator(servers=["S1", "S2"])
        assert qcc.epoch is qcc.calibrator.epoch
        assert qcc.epoch is qcc.availability.epoch

    def test_recalibrate_bumps(self):
        qcc = QueryCostCalibrator(servers=["S1", "S2"])
        before = qcc.epoch.value
        qcc.recalibrate(0.0)
        assert qcc.epoch.value > before

    def test_status_reports_epoch(self):
        qcc = QueryCostCalibrator(servers=["S1"])
        assert qcc.status()["calibration_epoch"] == qcc.epoch.value
