"""Availability and reliability tracking (Section 3.3).

Two information sources feed the monitor:

* the query execution log — errors surfaced by the meta-wrapper mark a
  server down *immediately*, so no further fragments are routed to it,
  and a success marks it up again only if its request was dispatched
  no earlier than that mark (under contention a fragment dispatched
  before the error can settle after it);
* daemon probes — periodic pings through the meta-wrapper that both
  detect recovery (a down server becomes eligible again) and measure
  network latency for initial calibration factors.

A *reliability factor* ≥ 1 additionally penalises flaky servers in cost
calibration, steering II toward "not only high performance but also
highly available remote servers".
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from ..obs import get_obs
from .epoch import CalibrationEpoch


@dataclass
class ServerHealth:
    """Mutable health state of one server."""

    up: bool = True
    #: instant of the latest down mark (a failed request or probe)
    down_at: float = -math.inf
    #: recent request outcomes: (t_ms, succeeded)
    outcomes: Deque[Tuple[float, bool]] = field(
        default_factory=lambda: deque(maxlen=64)
    )
    #: successes among ``outcomes``, maintained by :meth:`note`
    good: int = 0

    def note(self, t_ms: float, succeeded: bool) -> None:
        """Append one outcome, evicting the oldest from a full window."""
        outcomes = self.outcomes
        if len(outcomes) == outcomes.maxlen:
            self.good -= outcomes[0][1]
        outcomes.append((t_ms, succeeded))
        self.good += succeeded

    def success_rate(self) -> float:
        if not self.outcomes:
            return 1.0
        return self.good / len(self.outcomes)


class AvailabilityMonitor:
    """Tracks up/down state and reliability of every remote source."""

    def __init__(
        self,
        servers: Iterable[str],
        reliability_weight: float = 1.0,
        epoch: Optional[CalibrationEpoch] = None,
    ):
        self._health: Dict[str, ServerHealth] = {
            name: ServerHealth() for name in servers
        }
        self.reliability_weight = reliability_weight
        #: Bumped on up/down transitions and on reliability-rate changes
        #: — both alter the calibrated cost surface (infinite cost for a
        #: down server, the reliability penalty for a flaky one), so
        #: compiled plans from before the event must not be reused.
        self.epoch = epoch if epoch is not None else CalibrationEpoch()

    def _get(self, server: str) -> ServerHealth:
        health = self._health.get(server)
        if health is None:
            health = ServerHealth()
            self._health[server] = health
        return health

    # -- event intake ----------------------------------------------------

    def record_error(self, server: str, t_ms: float) -> None:
        """A request to *server* failed: mark it down at once.

        The runtime log "enables QCC to influence II not to route queries
        to the unavailable remote sources" — recovery requires a
        successful daemon probe.
        """
        health = self._get(server)
        was_up = health.up
        rate_before = health.success_rate()
        health.up = False
        health.down_at = max(health.down_at, t_ms)
        health.note(t_ms, False)
        if was_up or health.success_rate() != rate_before:
            self.epoch.bump()
        obs = get_obs()
        obs.metrics.counter("server_errors_total", server=server).inc()
        obs.metrics.gauge("server_up", server=server).set(0.0)
        if was_up:
            obs.timeline.event(
                t_ms, "server-down", server=server, detail="query error"
            )

    def record_success(self, server: str, t_ms: float) -> None:
        """A request to *server* dispatched at *t_ms* succeeded.

        It counts toward the reliability window either way, but a request
        dispatched before the server's last down mark is stale news: it
        leaves a down server down.
        """
        health = self._get(server)
        was_up = health.up
        rate_before = health.success_rate()
        stale = t_ms < health.down_at
        health.up = was_up or not stale
        health.note(t_ms, True)
        if health.up != was_up or health.success_rate() != rate_before:
            self.epoch.bump()
        if stale:
            return
        obs = get_obs()
        obs.metrics.gauge("server_up", server=server).set(1.0)
        if not was_up:
            obs.timeline.event(
                t_ms, "server-up", server=server, detail="query success"
            )

    def record_probe(self, server: str, t_ms: float, rtt_ms: Optional[float]) -> None:
        """Outcome of a daemon probe; ``rtt_ms`` None means unreachable."""
        health = self._get(server)
        obs = get_obs()
        if rtt_ms is None:
            if health.up:
                self.epoch.bump()
                obs.timeline.event(
                    t_ms, "server-down", server=server, detail="probe failed"
                )
            health.up = False
            health.down_at = max(health.down_at, t_ms)
            obs.metrics.gauge("server_up", server=server).set(0.0)
        else:
            if not health.up:
                self.epoch.bump()
                obs.timeline.event(
                    t_ms,
                    "server-up",
                    server=server,
                    detail="probe answered",
                    value=rtt_ms,
                )
            health.up = True
            obs.metrics.gauge("server_up", server=server).set(1.0)
            obs.metrics.histogram(
                "server_probe_rtt_ms", server=server
            ).observe(rtt_ms)

    # -- queries ----------------------------------------------------------

    def is_available(self, server: str, t_ms: float) -> bool:
        return self._get(server).up

    def reliability_factor(self, server: str) -> float:
        """Cost multiplier ≥ 1 penalising observed unreliability.

        With success rate *s*, the expected number of attempts until a
        success is 1/s; the factor interpolates toward that with
        ``reliability_weight``.
        """
        health = self._get(server)
        rate = health.success_rate()
        if rate >= 1.0:
            return 1.0
        rate = max(rate, 0.05)
        penalty = (1.0 / rate) - 1.0
        return 1.0 + self.reliability_weight * penalty

    def down_servers(self) -> List[str]:
        return sorted(
            name for name, health in self._health.items() if not health.up
        )

    def snapshot(self) -> Dict[str, bool]:
        return {name: health.up for name, health in self._health.items()}
