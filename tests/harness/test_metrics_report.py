"""Unit tests for metrics and report rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.fed import QueryPatroller
from repro.harness import (
    ResponseStats,
    ascii_table,
    bar_chart,
    grouped_series,
    mean,
    percent_gain,
    percentile,
)
from repro.numeric import left_sum

#: Response times as the experiments produce them: many, non-integral.
_TIMES = st.lists(
    st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=40
)


class TestPercentile:
    def test_median(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    def test_bounds(self):
        assert percentile([5.0], 0.99) == 5.0
        assert percentile([], 0.5) == 0.0
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestResponseStats:
    def test_from_samples(self):
        stats = ResponseStats.from_samples([4.0, 1.0, 3.0, 2.0])
        assert stats.count == 4
        assert stats.mean == 2.5
        assert stats.median == 2.5
        assert stats.minimum == 1.0
        assert stats.maximum == 4.0

    def test_empty(self):
        stats = ResponseStats.from_samples([])
        assert stats.count == 0
        assert stats.mean == 0.0


class TestGains:
    def test_percent_gain(self):
        assert percent_gain(100.0, 50.0) == 50.0
        assert percent_gain(100.0, 120.0) == -20.0
        assert percent_gain(0.0, 10.0) == 0.0

    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        assert mean([]) == 0.0


class TestAveragesAreLeftFolds:
    """The means behind Table 2 and Figures 10/11 add left to right on
    every interpreter; CPython 3.12's ``sum`` compensates and differs."""

    @given(_TIMES)
    def test_mean(self, values):
        assert mean(values) == left_sum(values) / len(values)

    @given(_TIMES)
    def test_patroller_mean_response(self, times):
        patroller = QueryPatroller()
        for time in times:
            patroller.complete(patroller.submit("q", 0.0), time)
        assert patroller.mean_response_ms() == left_sum(times) / len(times)


class TestAsciiTable:
    def test_alignment_and_headers(self):
        text = ascii_table(
            ["name", "value"],
            [["alpha", 1.0], ["b", 123.456]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert "123.46" in text

    def test_float_formatting(self):
        text = ascii_table(["x"], [[2.0]])
        assert "2.0" in text


class TestCharts:
    def test_bar_chart(self):
        text = bar_chart({"S1": 10.0, "S2": 20.0}, unit="ms")
        lines = text.splitlines()
        assert lines[0].startswith("S1")
        assert lines[0].count("#") == 20
        assert lines[1].count("#") == 40
        assert "20.0ms" in lines[1]

    def test_bar_chart_empty(self):
        assert "(empty)" in bar_chart({})

    def test_grouped_series(self):
        text = grouped_series(
            ["Base", "Load"],
            {"S1": {"Base": 1.0, "Load": 2.0}, "S2": {"Base": 3.0}},
        )
        assert "Base" in text
        assert "3.0" in text
