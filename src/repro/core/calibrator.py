"""Cost calibration factors (Sections 3.1 and 3.2).

The calibrator maintains two granularities of query-fragment processing
cost calibration factors — per (server, fragment signature) and per
server — plus the II-level workload calibration factor.  Live histories
are folded into *active* factors only at recalibration-cycle boundaries,
so the optimizer sees a stable cost surface between cycles.
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple

from ..obs import get_obs
from ..sqlengine import PlanCost
from .epoch import CalibrationEpoch
from .history import RatioHistory

_LOG = logging.getLogger("repro.calibrator")


#: Sliding-window size for each ratio history.  Small by design: a long
#: window blends observations from superseded load regimes and makes QCC
#: lag environment changes by several calibration cycles.
WINDOW = 8

#: Minimum samples before a per-fragment factor is trusted.
MIN_FRAGMENT_SAMPLES = 2

#: Minimum samples before a per-server factor is trusted.
MIN_SERVER_SAMPLES = 1

#: Minimum samples before the II workload factor is trusted.
II_MIN_SAMPLES = 2

#: Factors are clamped to this range to bound the damage a single wild
#: observation can do.
MIN_FACTOR = 0.05
MAX_FACTOR = 100.0

#: A per-fragment factor that receives no new samples for this many
#: recalibration cycles is dropped (falls back to the per-server factor,
#: which daemon probes keep fresh).  Prevents a server from being shunned
#: forever on the basis of stale observations.
FRAGMENT_STALE_CYCLES = 2


class CostCalibrator:
    """Learns and serves query-fragment processing cost calibration factors."""

    def __init__(self, epoch: Optional[CalibrationEpoch] = None):
        #: Bumped whenever the active factors (the cost surface served to
        #: the optimizer) change; plan caches validate against it.
        self.epoch = epoch if epoch is not None else CalibrationEpoch()
        self._server_history: Dict[str, RatioHistory] = {}
        self._fragment_history: Dict[Tuple[str, str], RatioHistory] = {}
        self._active_server: Dict[str, float] = {}
        self._active_fragment: Dict[Tuple[str, str], float] = {}
        #: per-fragment (sample count at last recalibration, cycles stale)
        self._fragment_staleness: Dict[Tuple[str, str], Tuple[int, int]] = {}
        #: Probe-derived starting points used before any execution history
        #: exists (Section 2: daemons "derive initial query cost
        #: calibration factors").
        self._initial: Dict[str, float] = {}

    # -- recording ---------------------------------------------------------

    def record(
        self,
        server: str,
        fragment_signature: str,
        estimated_total: float,
        observed_ms: float,
    ) -> None:
        """Record one (estimate, observation) pair from the meta-wrapper."""
        server_history = self._server_history.setdefault(
            server, RatioHistory(WINDOW)
        )
        server_history.record(estimated_total, observed_ms)
        key = (server, fragment_signature)
        fragment_history = self._fragment_history.setdefault(
            key, RatioHistory(WINDOW)
        )
        fragment_history.record(estimated_total, observed_ms)

    def record_probe(
        self, server: str, estimated_total: float, observed_ms: float
    ) -> None:
        """Record a daemon-probe sample into the per-server history only.

        Probes keep per-server factors fresh for servers the optimizer is
        currently avoiding — without them, a factor learned under load
        would never decay once traffic stops flowing to the server.
        """
        server_history = self._server_history.setdefault(
            server, RatioHistory(WINDOW)
        )
        server_history.record(estimated_total, observed_ms)

    def set_initial_factor(self, server: str, factor: float) -> None:
        clamped = self._clamp(factor)
        if self._initial.get(server) != clamped:
            self._initial[server] = clamped
            self.epoch.bump()

    # -- calibration cycle ----------------------------------------------------

    def recalibrate(self, count_staleness: bool = True) -> Dict[str, float]:
        """Fold histories into active factors; returns per-server factors.

        Each cycle consumes its samples: the new factor reflects only
        observations made *since the previous recalibration*, so a load
        regime change is fully absorbed within one cycle instead of
        bleeding through a long shared window.  A history with too few
        new samples keeps its previous factor (and, per-fragment, ages
        toward staleness unless ``count_staleness`` is False — drift-
        triggered early recalibrations must not age factors, or a burst
        of them would expire per-fragment knowledge mid-workload).

        Every recalibration opens a new calibration epoch, even when no
        factor moves: the cycle boundary is the contract under which
        compiled plans may be reused, so the boundary itself invalidates.
        """
        self.epoch.bump()
        for server, history in self._server_history.items():
            if history.count >= MIN_SERVER_SAMPLES:
                self._active_server[server] = self._clamp(history.ratio())
                history.clear()
        for key, history in self._fragment_history.items():
            last_count, stale_cycles = self._fragment_staleness.get(key, (0, 0))
            total = history.total_recorded
            if total > last_count:
                self._fragment_staleness[key] = (total, 0)
                if history.count >= MIN_FRAGMENT_SAMPLES:
                    self._active_fragment[key] = self._clamp(history.ratio())
                    history.clear()
            elif count_staleness:
                stale_cycles += 1
                self._fragment_staleness[key] = (last_count, stale_cycles)
                if stale_cycles >= FRAGMENT_STALE_CYCLES:
                    dropped = self._active_fragment.pop(key, None)
                    if dropped is not None:
                        # A silent fallback here is undetectable from the
                        # outside (the optimizer just starts seeing the
                        # per-server factor); surface it.
                        server, signature = key
                        fallback = self.factor(server)
                        get_obs().metrics.counter(
                            "calibrator_fragment_factors_dropped_total",
                            server=server,
                        ).inc()
                        _LOG.info(
                            "dropped stale per-fragment factor %.2f for "
                            "(%s, %s) after %d idle cycles; falling back to "
                            "per-server factor %.2f",
                            dropped,
                            server,
                            signature,
                            stale_cycles,
                            fallback,
                        )
        return dict(self._active_server)

    # -- lookup ----------------------------------------------------------

    def factor(
        self, server: str, fragment_signature: Optional[str] = None
    ) -> float:
        """Resolve the calibration factor with fragment→server→initial
        fallback (Section 3.1's per-source, per-fragment factors)."""
        if fragment_signature is not None:
            specific = self._active_fragment.get((server, fragment_signature))
            if specific is not None:
                return specific
        general = self._active_server.get(server)
        if general is not None:
            return general
        return self._initial.get(server, 1.0)

    def calibrate(
        self,
        cost: PlanCost,
        server: str,
        fragment_signature: Optional[str] = None,
    ) -> PlanCost:
        """Scale an estimated cost by the applicable factor."""
        return cost.scaled(self.factor(server, fragment_signature))

    # -- introspection ----------------------------------------------------

    def max_drift(self) -> float:
        """Worst-case divergence between live ratios and active factors.

        Returns max over servers of max(live/active, active/live) — 1.0
        means the active factors still describe reality.  QCC uses this
        to trigger an early recalibration when the environment shifts
        mid-cycle (the 'dynamic adjustment' of Section 3.4 must react to
        rising volatility, not only observe it at the next boundary).
        """
        worst = 1.0
        for server, history in self._server_history.items():
            if history.count < MIN_SERVER_SAMPLES:
                continue
            # Clamp the live ratio exactly as recalibration would before
            # comparing: an observation outside [MIN_FACTOR, MAX_FACTOR]
            # can never move the active factor past the clamp bounds, so
            # comparing the raw ratio would report permanent drift (and
            # force an early recalibration on every check) for a
            # divergence no recalibration can close.
            live = self._clamp(history.ratio())
            active = self.factor(server)
            if live <= 0 or active <= 0:
                continue
            ratio = live / active if live >= active else active / live
            worst = max(worst, ratio)
        return worst

    def volatility(self, server: str) -> float:
        history = self._server_history.get(server)
        return history.volatility() if history else 0.0

    def max_volatility(self) -> float:
        if not self._server_history:
            return 0.0
        return max(h.volatility() for h in self._server_history.values())

    def server_factors(self) -> Dict[str, float]:
        return dict(self._active_server)

    def fragment_factors(self) -> Dict[Tuple[str, str], float]:
        """Active per-(server, fragment signature) factors.

        Invariant checkers audit these against the clamp bounds
        (``MIN_FACTOR``, ``MAX_FACTOR``); they are folded copies, so
        mutating the dict is safe.
        """
        return dict(self._active_fragment)

    def initial_factors(self) -> Dict[str, float]:
        """Probe-derived initial factors (already clamped)."""
        return dict(self._initial)

    def live_ratios(self) -> Dict[str, float]:
        """Un-folded observed/estimated ratio per server with samples.

        Read this *before* :meth:`recalibrate` — folding drains the
        windows.  The federation timeline records it next to the active
        factor so estimate-vs-reality drift is visible per cycle.
        """
        return {
            server: history.ratio()
            for server, history in self._server_history.items()
            if history.count > 0
        }

    def pending_samples(self) -> Dict[str, int]:
        """Count of un-folded history samples per server (the QCC's
        per-server ingest queue depth entering a cycle)."""
        return {
            server: history.count
            for server, history in self._server_history.items()
        }

    def sample_count(self, server: str) -> int:
        history = self._server_history.get(server)
        return history.count if history else 0

    def _clamp(self, value: float) -> float:
        return min(MAX_FACTOR, max(MIN_FACTOR, value))


class IICalibrator:
    """The workload cost calibration factor for II itself (Section 3.2).

    Compares the global estimate built from *calibrated* source costs
    against the observed end-to-end response time, absorbing the load on
    the integrator's own machine.
    """

    def __init__(self) -> None:
        self._history = RatioHistory(WINDOW)
        self._active = 1.0

    def record(self, estimated_total: float, observed_ms: float) -> None:
        self._history.record(estimated_total, observed_ms)

    def recalibrate(self) -> float:
        if self._history.count >= II_MIN_SAMPLES:
            self._active = max(MIN_FACTOR, min(MAX_FACTOR, self._history.ratio()))
            self._history.clear()
        return self._active

    @property
    def factor(self) -> float:
        return self._active

    @property
    def sample_count(self) -> int:
        return self._history.count

    def volatility(self) -> float:
        return self._history.volatility()
