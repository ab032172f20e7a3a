"""Unit tests for availability tracking and the calibration cycle."""

import random

import pytest

from repro.core import (
    AvailabilityMonitor,
    CalibrationCycleController,
    CycleConfig,
)


class TestAvailabilityMonitor:
    def test_starts_available(self):
        monitor = AvailabilityMonitor(["S1", "S2"])
        assert monitor.is_available("S1", 0.0)
        assert monitor.down_servers() == []

    def test_error_marks_down_immediately(self):
        monitor = AvailabilityMonitor(["S1"])
        monitor.record_error("S1", 10.0)
        assert not monitor.is_available("S1", 11.0)
        assert monitor.down_servers() == ["S1"]

    def test_success_restores(self):
        monitor = AvailabilityMonitor(["S1"])
        monitor.record_error("S1", 10.0)
        monitor.record_success("S1", 20.0)
        assert monitor.is_available("S1", 21.0)

    def test_stale_success_leaves_server_down(self):
        """A success dispatched before the down mark counts toward the
        reliability window but does not bring the server back."""
        monitor = AvailabilityMonitor(["S1"])
        monitor.record_error("S1", 10.0)
        monitor.record_success("S1", 5.0)
        assert not monitor.is_available("S1", 11.0)
        assert monitor.reliability_factor("S1") == 2.0  # one of two
        monitor.record_probe("S1", 30.0, rtt_ms=None)
        monitor.record_success("S1", 20.0)
        assert not monitor.is_available("S1", 31.0)
        monitor.record_success("S1", 30.0)
        assert monitor.is_available("S1", 31.0)

    def test_probe_recovery(self):
        monitor = AvailabilityMonitor(["S1"])
        monitor.record_error("S1", 10.0)
        monitor.record_probe("S1", 20.0, rtt_ms=12.0)
        assert monitor.is_available("S1", 21.0)

    def test_failed_probe_marks_down(self):
        monitor = AvailabilityMonitor(["S1"])
        monitor.record_probe("S1", 20.0, rtt_ms=None)
        assert not monitor.is_available("S1", 21.0)

    def test_unknown_server_tracked_lazily(self):
        monitor = AvailabilityMonitor([])
        assert monitor.is_available("new", 0.0)
        monitor.record_error("new", 1.0)
        assert not monitor.is_available("new", 2.0)

    def test_snapshot(self):
        monitor = AvailabilityMonitor(["S1", "S2"])
        monitor.record_error("S2", 0.0)
        assert monitor.snapshot() == {"S1": True, "S2": False}


class TestSuccessRateBookkeeping:
    """``ServerHealth`` keeps its success count as outcomes enter and
    leave the 64-slot window; the rate — and hence every epoch bump —
    is what re-summing the window would give."""

    def test_count_equals_the_resum_through_window_eviction(self):
        rng = random.Random(5)
        monitor = AvailabilityMonitor(["S1"])
        health = monitor._get("S1")
        reference = []  # the window, re-summed from scratch every step
        up, expected_epoch = True, 0
        for step in range(400):
            # Long good runs, bursts of failures, and enough steps to
            # turn the window over several times.
            succeeded = rng.random() < (0.97 if step % 150 < 100 else 0.4)
            before = sum(reference) / len(reference) if reference else 1.0
            reference = (reference + [succeeded])[-64:]
            after = sum(reference) / len(reference)
            if up != succeeded or after != before:
                expected_epoch += 1
            up = succeeded
            if succeeded:
                monitor.record_success("S1", float(step))
            else:
                monitor.record_error("S1", float(step))
            assert health.good == sum(ok for _, ok in health.outcomes)
            assert health.success_rate() == after
            assert monitor.epoch.value == expected_epoch
        assert len(health.outcomes) == 64


class TestReliabilityFactor:
    def test_perfect_server_has_unit_factor(self):
        monitor = AvailabilityMonitor(["S1"])
        for t in range(10):
            monitor.record_success("S1", float(t))
        assert monitor.reliability_factor("S1") == 1.0

    def test_flaky_server_penalised(self):
        monitor = AvailabilityMonitor(["S1"])
        for t in range(10):
            if t % 2 == 0:
                monitor.record_error("S1", float(t))
            else:
                monitor.record_success("S1", float(t))
        # 50% success -> expected attempts 2 -> factor 2 at weight 1
        assert monitor.reliability_factor("S1") == pytest.approx(2.0)

    def test_weight_scales_penalty(self):
        monitor = AvailabilityMonitor(["S1"], reliability_weight=0.5)
        monitor.record_error("S1", 0.0)
        monitor.record_success("S1", 1.0)
        assert monitor.reliability_factor("S1") == pytest.approx(1.5)

    def test_no_history_is_unit(self):
        assert AvailabilityMonitor(["S1"]).reliability_factor("S1") == 1.0

    def test_all_failures_bounded(self):
        monitor = AvailabilityMonitor(["S1"])
        for t in range(70):
            monitor.record_error("S1", float(t))
        assert monitor.reliability_factor("S1") <= 1 + (1 / 0.05 - 1)


class TestCycleController:
    def test_target_volatility_gives_base(self):
        controller = CalibrationCycleController(
            CycleConfig(base_interval_ms=1000.0)
        )
        assert controller.next_interval(0.25) == pytest.approx(1000.0)

    def test_high_volatility_shortens(self):
        controller = CalibrationCycleController(
            CycleConfig(base_interval_ms=1000.0)
        )
        assert controller.next_interval(0.5) == pytest.approx(500.0)

    def test_low_volatility_lengthens(self):
        controller = CalibrationCycleController(
            CycleConfig(base_interval_ms=1000.0, max_interval_ms=3000.0)
        )
        assert controller.next_interval(0.125) == pytest.approx(2000.0)

    def test_zero_volatility_maxes_out(self):
        controller = CalibrationCycleController(
            CycleConfig(base_interval_ms=1000.0, max_interval_ms=9000.0)
        )
        assert controller.next_interval(0.0) == 9000.0

    def test_clamping(self):
        config = CycleConfig(
            base_interval_ms=1000.0,
            min_interval_ms=500.0,
            max_interval_ms=2000.0,
        )
        controller = CalibrationCycleController(config)
        assert controller.next_interval(100.0) == 500.0
        assert controller.next_interval(1e-9) == 2000.0

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            CycleConfig(base_interval_ms=10.0, min_interval_ms=20.0)
