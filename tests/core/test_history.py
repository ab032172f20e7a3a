"""Unit tests for QCC's statistical primitives."""

import statistics

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import RatioHistory, RunningStats


class TestRunningStats:
    def test_matches_statistics_module(self):
        values = [3.0, 1.5, 4.0, 1.0, 5.9, 2.6]
        stats = RunningStats()
        for v in values:
            stats.update(v)
        assert stats.mean == pytest.approx(statistics.mean(values))
        assert stats.variance == pytest.approx(statistics.variance(values))
        assert stats.stddev == pytest.approx(statistics.stdev(values))

    def test_empty_and_single(self):
        stats = RunningStats()
        assert stats.variance == 0.0
        stats.update(5.0)
        assert stats.mean == 5.0
        assert stats.coefficient_of_variation == 0.0

    def test_cv(self):
        stats = RunningStats()
        for v in (10.0, 10.0, 10.0):
            stats.update(v)
        assert stats.coefficient_of_variation == 0.0

    @given(st.lists(st.floats(0.1, 1000.0), min_size=2, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_never_negative_variance(self, values):
        stats = RunningStats()
        for v in values:
            stats.update(v)
        assert stats.variance >= 0.0


class TestRatioHistory:
    def test_ratio_of_averages_not_average_of_ratios(self):
        history = RatioHistory(window=8)
        history.record(1.0, 10.0)   # ratio 10
        history.record(100.0, 100.0)  # ratio 1
        # avg-of-ratios would be 5.5; ratio-of-averages weights the big one
        assert history.ratio() == pytest.approx(110.0 / 101.0)

    def test_default_when_empty(self):
        assert RatioHistory().ratio() == 1.0
        assert RatioHistory().ratio(default=2.5) == 2.5

    def test_window_evicts_oldest(self):
        history = RatioHistory(window=2)
        history.record(1.0, 100.0)
        history.record(1.0, 2.0)
        history.record(1.0, 2.0)
        assert history.ratio() == pytest.approx(2.0)

    def test_total_recorded_monotone_through_clear(self):
        history = RatioHistory(window=4)
        history.record(1.0, 1.0)
        history.record(1.0, 1.0)
        assert history.total_recorded == 2
        history.clear()
        assert history.count == 0
        assert history.total_recorded == 2
        history.record(1.0, 1.0)
        assert history.total_recorded == 3

    def test_volatility_zero_for_constant_ratio(self):
        history = RatioHistory()
        for _ in range(5):
            history.record(2.0, 6.0)
        assert history.volatility() == pytest.approx(0.0)

    def test_volatility_positive_for_jitter(self):
        history = RatioHistory()
        history.record(1.0, 1.0)
        history.record(1.0, 5.0)
        history.record(1.0, 0.5)
        assert history.volatility() > 0.5

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RatioHistory().record(-1.0, 2.0)

    def test_zero_estimates_yield_default(self):
        history = RatioHistory()
        history.record(0.0, 5.0)
        assert history.ratio(default=1.0) == 1.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            RatioHistory(window=0)

    @given(
        st.lists(
            st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_ratio_bounded_by_extreme_pair_ratios(self, pairs):
        history = RatioHistory(window=64)
        for est, obs in pairs:
            history.record(est, obs)
        ratios = [obs / est for est, obs in pairs]
        assert min(ratios) - 1e-9 <= history.ratio() <= max(ratios) + 1e-9
