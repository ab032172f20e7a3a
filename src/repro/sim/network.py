"""Wide-area network modelling between II and the remote servers.

Each server is reached through a :class:`NetworkLink` with base latency,
bandwidth and an optional congestion schedule.  Congestion inflates
latency and deflates bandwidth — the "dynamic nature of network latency"
the paper's cost functions cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .load import ConstantLoad, LoadSchedule


@dataclass
class NetworkLink:
    """A simplex point-to-point link model.

    ``latency_ms`` is the one-way propagation delay under no congestion;
    ``bandwidth_mbps`` the nominal throughput.  ``congestion`` is a
    schedule in [0, 1): at level c, latency is multiplied by
    ``1 + latency_slope*c`` and bandwidth divided by ``1 + c``.
    """

    latency_ms: float = 5.0
    bandwidth_mbps: float = 100.0
    congestion: LoadSchedule = field(default_factory=ConstantLoad)
    latency_slope: float = 8.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValueError("latency must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")

    def one_way_ms(self, t_ms: float) -> float:
        """Current one-way latency."""
        level = self.congestion.level(t_ms)
        return self.latency_ms * (1.0 + self.latency_slope * level)

    def round_trip_ms(self, t_ms: float) -> float:
        return 2.0 * self.one_way_ms(t_ms)

    def transfer_ms(self, payload_bytes: float, t_ms: float) -> float:
        """Time to stream *payload_bytes* over the link."""
        if payload_bytes <= 0:
            return 0.0
        level = self.congestion.level(t_ms)
        effective_mbps = self.bandwidth_mbps / (1.0 + level)
        bytes_per_ms = effective_mbps * 1_000_000.0 / 8.0 / 1000.0
        return payload_bytes / bytes_per_ms

    def request_response_ms(
        self, request_bytes: float, response_bytes: float, t_ms: float
    ) -> float:
        """Full round trip: send request, receive response payload."""
        return (
            self.round_trip_ms(t_ms)
            + self.transfer_ms(request_bytes, t_ms)
            + self.transfer_ms(response_bytes, t_ms)
        )
