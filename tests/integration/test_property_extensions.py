"""Property tests over the cost calibrator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostCalibrator


class TestCalibratorConvergence:
    @given(
        multiplier=st.floats(0.5, 20.0),
        estimates=st.lists(st.floats(1.0, 500.0), min_size=3, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_factor_converges_to_true_multiplier(self, multiplier, estimates):
        """If observations are exactly estimate x m, the learned factor
        is exactly m (up to clamping)."""
        calibrator = CostCalibrator()
        for estimate in estimates:
            calibrator.record("S", "sig", estimate, estimate * multiplier)
        calibrator.recalibrate()
        assert calibrator.factor("S") == pytest.approx(multiplier, rel=1e-6)
        assert calibrator.factor("S", "sig") == pytest.approx(
            multiplier, rel=1e-6
        )

    @given(
        multipliers=st.lists(st.floats(0.5, 10.0), min_size=2, max_size=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_factor_within_observed_range(self, multipliers):
        calibrator = CostCalibrator()
        for m in multipliers:
            calibrator.record("S", "sig", 10.0, 10.0 * m)
        calibrator.recalibrate()
        factor = calibrator.factor("S")
        assert min(multipliers) - 1e-9 <= factor <= max(multipliers) + 1e-9

    @given(
        regime_a=st.floats(1.0, 5.0),
        regime_b=st.floats(1.0, 5.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_regime_change_absorbed_in_one_cycle(self, regime_a, regime_b):
        calibrator = CostCalibrator()
        for _ in range(5):
            calibrator.record("S", "sig", 10.0, 10.0 * regime_a)
        calibrator.recalibrate()
        for _ in range(5):
            calibrator.record("S", "sig", 10.0, 10.0 * regime_b)
        calibrator.recalibrate()
        # The factor reflects only the new regime — no bleed-through.
        assert calibrator.factor("S") == pytest.approx(regime_b, rel=1e-6)
