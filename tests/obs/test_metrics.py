"""Counter/gauge/histogram semantics and registry behaviour."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry, percentile
from repro.obs.metrics import Histogram, NullRegistry


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("queries_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_same_key_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", server="S1")
        b = registry.counter("hits", server="S1")
        other = registry.counter("hits", server="S2")
        a.inc()
        assert b.value == 1.0
        assert other.value == 0.0

    def test_label_order_is_irrelevant(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", server="S1", fragment="QF1")
        b = registry.counter("hits", fragment="QF1", server="S1")
        assert a is b


class TestGauge:
    def test_set_and_inc(self):
        gauge = MetricsRegistry().gauge("server_up", server="S1")
        gauge.set(1.0)
        assert gauge.value == 1.0
        gauge.set(0.0)
        assert gauge.value == 0.0
        gauge.inc(0.5)
        assert gauge.value == 0.5


class TestHistogram:
    def test_summary_statistics(self):
        histogram = Histogram()
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 10.0
        assert histogram.mean == 2.5
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.p50 == 2.5

    def test_percentiles_match_shared_implementation(self):
        samples = [float(v) for v in range(100, 0, -1)]
        histogram = Histogram()
        for value in samples:
            histogram.observe(value)
        ordered = sorted(samples)
        for q in (0.5, 0.95, 0.99):
            assert histogram.percentile(q) == percentile(ordered, q)

    def test_empty_histogram(self):
        histogram = Histogram()
        snap = histogram.snapshot()
        assert snap["count"] == 0
        assert snap["p95"] == 0.0
        assert histogram.mean == 0.0

    def test_bounded_ring_keeps_newest_samples(self):
        histogram = Histogram(capacity=4)
        for value in range(10):
            histogram.observe(float(value))
        # count/total still reflect every observation...
        assert histogram.count == 10
        assert histogram.total == sum(range(10))
        # ...but only the 4 newest samples are retained, oldest first.
        assert histogram.samples() == [6.0, 7.0, 8.0, 9.0]
        # min/max are all-time, not ring-bound: 0.0 was evicted from the
        # ring but is still the true minimum.
        assert histogram.minimum == 0.0
        assert histogram.maximum == 9.0

    def test_min_max_survive_ring_wraparound_in_snapshot(self):
        histogram = Histogram(capacity=2)
        for value in (5.0, -3.0, 7.0, 1.0, 2.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["min"] == -3.0
        assert snap["max"] == 7.0

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            Histogram(capacity=0)


class TestRegistryExport:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc(3)
        registry.gauge("server_up", server="S1").set(1.0)
        registry.histogram("response_ms", server="S1").observe(12.0)
        snap = registry.snapshot()
        assert snap["counters"]["queries_total"] == 3.0
        assert snap["gauges"]["server_up{server=S1}"] == 1.0
        hist = snap["histograms"]["response_ms{server=S1}"]
        assert hist["count"] == 1
        assert hist["p99"] == 12.0

    def test_render_mentions_every_metric(self):
        registry = MetricsRegistry()
        registry.counter("queries_total").inc()
        registry.histogram("response_ms").observe(5.0)
        rendered = registry.render()
        assert "queries_total 1" in rendered
        assert "response_ms" in rendered and "p95" in rendered

    def test_value_accessors(self):
        registry = MetricsRegistry()
        assert registry.counter_value("missing") == 0.0
        assert registry.gauge_value("missing") is None
        registry.counter("hits", server="S1").inc()
        assert registry.counter_value("hits", server="S1") == 1.0

    def test_item_accessors_sorted(self):
        registry = MetricsRegistry()
        registry.counter("hits", server="S2").inc()
        registry.counter("hits", server="S1").inc(2)
        registry.gauge("server_up", server="S1").set(1.0)
        registry.histogram("response_ms", server="S1").observe(4.0)
        counters = registry.counter_items()
        assert [key for key, _ in counters] == [
            ("hits", (("server", "S1"),)),
            ("hits", (("server", "S2"),)),
        ]
        assert counters[0][1].value == 2.0
        assert len(registry.gauge_items()) == 1
        assert len(registry.histogram_items()) == 1

    def test_unsafe_label_values_are_quoted_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter("hits", server='S"1').inc()
        registry.counter("hits", server="a,b").inc()
        registry.counter("hits", server="a=b").inc()
        registry.counter("hits", server="a\\b").inc()
        registry.counter("hits", server="a\nb").inc()
        keys = list(registry.snapshot()["counters"])
        assert 'hits{server="S\\"1"}' in keys
        assert 'hits{server="a,b"}' in keys
        assert 'hits{server="a=b"}' in keys
        assert 'hits{server="a\\\\b"}' in keys
        assert 'hits{server="a\\nb"}' in keys
        # safe values keep the compact unquoted form
        registry.gauge("server_up", server="S1").set(1.0)
        assert "server_up{server=S1}" in registry.snapshot()["gauges"]


class TestNullRegistry:
    def test_records_nothing(self):
        registry = NullRegistry()
        counter = registry.counter("queries_total")
        counter.inc(100)
        registry.gauge("g").set(5.0)
        registry.histogram("h").observe(1.0)
        assert counter.value == 0.0
        snap = registry.snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_shares_instruments_across_keys(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b", server="S9")
        assert registry.histogram("a") is registry.histogram("b")
