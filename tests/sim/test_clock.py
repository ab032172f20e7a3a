"""Unit tests for virtual time."""

import pytest

from repro.sim import PeriodicTimer, VirtualClock


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance(self):
        clock = VirtualClock()
        assert clock.advance(5.0) == 5.0
        assert clock.advance(2.5) == 7.5

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_advance_to(self):
        clock = VirtualClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0
        clock.advance_to(5.0)  # no-op backwards
        assert clock.now == 10.0


class TestPeriodicTimer:
    def test_not_due_before_period(self):
        timer = PeriodicTimer(100.0)
        assert not timer.due(50.0)
        assert timer.due(100.0)

    def test_fire_schedules_from_now(self):
        timer = PeriodicTimer(100.0)
        timer.fire(250.0)  # fired late
        assert not timer.due(300.0)
        assert timer.due(350.0)

    def test_reschedule(self):
        timer = PeriodicTimer(100.0)
        timer.reschedule(10.0, now_ms=0.0)
        assert timer.due(10.0)
        assert timer.period_ms == 10.0

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(0.0)
        timer = PeriodicTimer(5.0)
        with pytest.raises(ValueError):
            timer.reschedule(-1.0, 0.0)
