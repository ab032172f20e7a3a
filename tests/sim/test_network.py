"""Unit tests for the network model."""

import pytest

from repro.sim import ConstantLoad, NetworkLink


class TestLatency:
    def test_uncongested(self):
        link = NetworkLink(latency_ms=10.0)
        assert link.one_way_ms(0.0) == 10.0
        assert link.round_trip_ms(0.0) == 20.0

    def test_congestion_inflates_latency(self):
        quiet = NetworkLink(latency_ms=10.0)
        congested = NetworkLink(
            latency_ms=10.0, congestion=ConstantLoad(0.5), latency_slope=8.0
        )
        assert congested.one_way_ms(0.0) == pytest.approx(50.0)
        assert congested.one_way_ms(0.0) > quiet.one_way_ms(0.0)


class TestTransfer:
    def test_zero_bytes(self):
        assert NetworkLink().transfer_ms(0.0, 0.0) == 0.0

    def test_transfer_time_math(self):
        # 100 Mbps = 12.5 MB/s = 12500 bytes/ms
        link = NetworkLink(latency_ms=0.0, bandwidth_mbps=100.0)
        assert link.transfer_ms(12_500.0, 0.0) == pytest.approx(1.0)

    def test_congestion_halves_bandwidth(self):
        quiet = NetworkLink(bandwidth_mbps=100.0)
        busy = NetworkLink(bandwidth_mbps=100.0, congestion=ConstantLoad(0.99))
        assert busy.transfer_ms(10_000.0, 0.0) == pytest.approx(
            quiet.transfer_ms(10_000.0, 0.0) * 1.99
        )

    def test_request_response_combines(self):
        link = NetworkLink(latency_ms=5.0, bandwidth_mbps=100.0)
        total = link.request_response_ms(1_000.0, 10_000.0, 0.0)
        assert total == pytest.approx(
            link.round_trip_ms(0.0)
            + link.transfer_ms(1_000.0, 0.0)
            + link.transfer_ms(10_000.0, 0.0)
        )


class TestValidation:
    def test_negative_latency(self):
        with pytest.raises(ValueError):
            NetworkLink(latency_ms=-1.0)

    def test_zero_bandwidth(self):
        with pytest.raises(ValueError):
            NetworkLink(bandwidth_mbps=0.0)
