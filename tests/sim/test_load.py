"""Unit tests for load schedules and contention profiles."""

import pytest

from repro.sim import (
    ConstantLoad,
    ContentionProfile,
    MutableLoad,
    StepSchedule,
)


class TestConstantLoad:
    def test_level(self):
        assert ConstantLoad(0.5).level(12345.0) == 0.5

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ConstantLoad(1.0)
        with pytest.raises(ValueError):
            ConstantLoad(-0.1)


class TestStepSchedule:
    def test_steps(self):
        schedule = StepSchedule([(100.0, 0.5), (200.0, 0.9)], initial=0.1)
        assert schedule.level(50.0) == 0.1
        assert schedule.level(100.0) == 0.5
        assert schedule.level(150.0) == 0.5
        assert schedule.level(500.0) == 0.9

    def test_unsorted_input_is_sorted(self):
        schedule = StepSchedule([(200.0, 0.9), (100.0, 0.5)])
        assert schedule.level(150.0) == 0.5

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            StepSchedule([(0.0, 1.5)])


class TestMutableLoad:
    def test_set(self):
        load = MutableLoad()
        assert load.level(0.0) == 0.0
        load.set(0.8)
        assert load.level(0.0) == 0.8

    def test_set_validates(self):
        with pytest.raises(ValueError):
            MutableLoad().set(1.0)


class TestContentionProfile:
    def test_no_load_no_slowdown(self):
        profile = ContentionProfile(0.9, 0.9)
        assert profile.cpu_multiplier(0.0) == 1.0
        assert profile.io_multiplier(0.0) == 1.0

    def test_multiplier_monotone_in_load(self):
        profile = ContentionProfile(0.9, 0.5)
        levels = [0.0, 0.2, 0.5, 0.8, 0.95]
        cpu = [profile.cpu_multiplier(lv) for lv in levels]
        assert cpu == sorted(cpu)
        assert cpu[-1] > cpu[0]

    def test_sensitivity_separates_resources(self):
        profile = ContentionProfile(cpu_sensitivity=0.95, io_sensitivity=0.3)
        assert profile.cpu_multiplier(0.85) > profile.io_multiplier(0.85)

    def test_multiplier_bounded(self):
        profile = ContentionProfile(1.0, 1.0)
        assert profile.cpu_multiplier(0.99) <= 20.0  # capped at 1/(1-0.95)

    def test_invalid_sensitivity(self):
        with pytest.raises(ValueError):
            ContentionProfile(cpu_sensitivity=1.5)
