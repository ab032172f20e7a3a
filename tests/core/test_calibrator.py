"""Unit tests for calibration factor learning."""

import pytest

from repro.core import CostCalibrator, IICalibrator
from repro.core import calibrator as calibrator_module
from repro.sqlengine import PlanCost


SIG = "SELECT * FROM t WHERE x > ?"


@pytest.fixture()
def setting(monkeypatch):
    """Patch calibrator constants: ``setting(MAX_FACTOR=4.0)``."""

    def patch(**constants):
        for name, value in constants.items():
            monkeypatch.setattr(calibrator_module, name, value)

    return patch


class TestFactorResolution:
    def test_default_is_one(self):
        assert CostCalibrator().factor("S1") == 1.0
        assert CostCalibrator().factor("S1", SIG) == 1.0

    def test_initial_factor_used_before_history(self):
        calibrator = CostCalibrator()
        calibrator.set_initial_factor("S1", 1.8)
        assert calibrator.factor("S1") == 1.8

    def test_server_factor_after_recalibration(self):
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 25.0)
        assert calibrator.factor("S1") == 1.0  # not folded yet
        calibrator.recalibrate()
        assert calibrator.factor("S1") == pytest.approx(2.5)

    def test_fragment_factor_preferred(self):
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 30.0)
        calibrator.record("S1", SIG, 10.0, 30.0)
        calibrator.record("S1", "other", 10.0, 10.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1", SIG) == pytest.approx(3.0)
        # unseen fragment falls back to the blended per-server factor
        assert calibrator.factor("S1", "unseen") == pytest.approx(70.0 / 30.0)

    def test_min_fragment_samples_gate(self, setting):
        setting(MIN_FRAGMENT_SAMPLES=3)
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.recalibrate()
        # 2 samples < 3: fragment factor not trusted, server factor used
        assert calibrator.factor("S1", SIG) == pytest.approx(5.0)

    def test_clamping(self, setting):
        setting(MAX_FACTOR=4.0)
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 1.0, 1000.0)
        calibrator.record("S1", SIG, 1.0, 1000.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1", SIG) == 4.0

    def test_calibrate_scales_cost(self):
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 20.0)
        calibrator.recalibrate()
        cost = PlanCost(first_tuple=1.0, total=10.0, rows=5.0)
        calibrated = calibrator.calibrate(cost, "S1", SIG)
        assert calibrated.total == pytest.approx(20.0)
        assert calibrated.rows == 5.0


class TestCycleSemantics:
    def test_cycle_consumes_samples(self):
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1", SIG) == pytest.approx(5.0)
        # A new regime: one cycle of fresh data fully replaces the factor.
        calibrator.record("S1", SIG, 10.0, 10.0)
        calibrator.record("S1", SIG, 10.0, 10.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1", SIG) == pytest.approx(1.0)

    def test_factor_retained_without_new_samples(self, setting):
        setting(FRAGMENT_STALE_CYCLES=10)
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.recalibrate()
        calibrator.recalibrate()
        assert calibrator.factor("S1", SIG) == pytest.approx(5.0)

    def test_stale_fragment_factor_expires(self):
        assert calibrator_module.FRAGMENT_STALE_CYCLES == 2
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.record("S1", SIG, 10.0, 50.0)
        calibrator.record_probe("S1", 10.0, 12.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1", SIG) == pytest.approx(5.0)
        calibrator.record_probe("S1", 10.0, 12.0)
        calibrator.recalibrate()  # stale cycle 1
        calibrator.record_probe("S1", 10.0, 12.0)
        calibrator.recalibrate()  # stale cycle 2 -> expired
        # falls back to the probe-fed per-server factor
        assert calibrator.factor("S1", SIG) == pytest.approx(1.2)

    def test_probe_feeds_server_history_only(self):
        calibrator = CostCalibrator()
        calibrator.record_probe("S1", 10.0, 30.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1") == pytest.approx(3.0)
        assert calibrator.factor("S1", SIG) == pytest.approx(3.0)  # fallback

    def test_max_drift(self):
        calibrator = CostCalibrator()
        assert calibrator.max_drift() == 1.0  # no history
        calibrator.record("S1", SIG, 10.0, 10.0)
        calibrator.recalibrate()  # active factor 1.0, history drained
        calibrator.record("S1", SIG, 10.0, 40.0)  # live ratio 4.0
        assert calibrator.max_drift() == pytest.approx(4.0)

    def test_max_drift_symmetric(self):
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 40.0)
        calibrator.recalibrate()  # active 4.0
        calibrator.record("S1", SIG, 10.0, 10.0)  # live 1.0
        assert calibrator.max_drift() == pytest.approx(4.0)

    def test_volatility_reporting(self):
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 10.0)
        calibrator.record("S1", SIG, 10.0, 90.0)
        assert calibrator.volatility("S1") > 0.5
        assert calibrator.max_volatility() > 0.5
        assert calibrator.volatility("unknown") == 0.0

    def test_sample_count(self):
        calibrator = CostCalibrator()
        assert calibrator.sample_count("S1") == 0
        calibrator.record("S1", SIG, 1.0, 1.0)
        assert calibrator.sample_count("S1") == 1


class TestIICalibrator:
    def test_learns_workload_factor(self):
        assert calibrator_module.II_MIN_SAMPLES == 2
        ii = IICalibrator()
        assert ii.factor == 1.0
        ii.record(10.0, 15.0)
        ii.record(10.0, 15.0)
        ii.recalibrate()
        assert ii.factor == pytest.approx(1.5)

    def test_below_min_samples_keeps_previous(self, setting):
        setting(II_MIN_SAMPLES=3)
        ii = IICalibrator()
        ii.record(10.0, 90.0)
        ii.recalibrate()
        assert ii.factor == 1.0

    def test_cycle_consumes(self, setting):
        setting(II_MIN_SAMPLES=1)
        ii = IICalibrator()
        ii.record(10.0, 30.0)
        ii.recalibrate()
        ii.record(10.0, 10.0)
        ii.recalibrate()
        assert ii.factor == pytest.approx(1.0)

    def test_volatility(self):
        ii = IICalibrator()
        ii.record(1.0, 1.0)
        ii.record(1.0, 3.0)
        assert ii.volatility() > 0


class TestClampBounds:
    """Regression tests for the clamp bounds."""

    def test_ii_calibrator_honors_custom_bounds(self, setting):
        setting(II_MIN_SAMPLES=1, MIN_FACTOR=0.5, MAX_FACTOR=2.0)
        ii = IICalibrator()
        ii.record(10.0, 1000.0)  # raw ratio 100
        ii.recalibrate()
        assert ii.factor == pytest.approx(2.0)
        ii.record(1000.0, 10.0)  # raw ratio 0.01
        ii.recalibrate()
        assert ii.factor == pytest.approx(0.5)

    def test_max_drift_clamps_live_ratio(self, setting):
        # A wild observation outside the clamp range must not report
        # drift a recalibration could never close: both the active
        # factor and the live ratio saturate at MAX_FACTOR.
        setting(MIN_FACTOR=0.5, MAX_FACTOR=2.0)
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 1000.0)  # raw ratio 100
        calibrator.recalibrate()  # active clamps to 2.0
        assert calibrator.factor("S1") == pytest.approx(2.0)
        calibrator.record("S1", SIG, 10.0, 1000.0)
        assert calibrator.max_drift() == pytest.approx(1.0)

    def test_max_drift_still_sees_real_divergence(self, setting):
        setting(MIN_FACTOR=0.5, MAX_FACTOR=10.0)
        calibrator = CostCalibrator()
        calibrator.record("S1", SIG, 10.0, 10.0)
        calibrator.recalibrate()  # active 1.0
        calibrator.record("S1", SIG, 10.0, 40.0)  # live 4.0, inside range
        assert calibrator.max_drift() == pytest.approx(4.0)
