"""The Query Cost Calibrator facade (QCC).

This is the component the paper contributes: it consumes the meta-
wrapper's compile-time and runtime records, maintains calibration
factors, availability and reliability state, dynamically adjusts its own
calibration cycle, and influences routing *indirectly* — by scaling the
cost estimates II sees and (optionally) rotating near-equal-cost plans
for load distribution.

The integrator and meta-wrapper reach it only through the interface of
:class:`~repro.core.calibration.Calibration`, which documents every
call.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Deque, Dict, Optional, Sequence

from ..obs import get_obs
from ..sqlengine import INFINITE_COST, PlanCost
from ..sqlengine.parser import fold_literals
from ..sim import PeriodicTimer, ServerUnavailable
from ..fed.decomposer import DecomposedQuery
from ..fed.global_optimizer import FragmentOption, GlobalPlan
from .availability import AvailabilityMonitor
from .calibration import Calibration
from .calibrator import CostCalibrator, IICalibrator
from .cycle import CalibrationCycleController, CycleConfig
from .load_balance import (
    FragmentLoadBalancer,
    GlobalLoadBalancer,
    LoadBalanceConfig,
)


#: Assumed processing time when converting a probe RTT into an initial
#: calibration factor before any execution history exists.
NOMINAL_PROBE_MS = 50.0

#: Daemon probe period (virtual ms).
PROBE_INTERVAL_MS = 2_000.0


@dataclass(frozen=True)
class QCCConfig:
    """Every QCC knob in one place."""

    cycle: CycleConfig = CycleConfig()
    load_balance: LoadBalanceConfig = LoadBalanceConfig()
    enable_fragment_balancing: bool = False
    enable_global_balancing: bool = False
    enable_reliability: bool = True
    reliability_weight: float = 1.0
    #: Force an early recalibration when live observed/estimated ratios
    #: diverge from the active factors by this multiple — a reactive
    #: extension of Section 3.4's cycle adjustment (the paper lists
    #: "dynamic tuning of the re-calibration cycles" as future work).
    #: 0 disables (default): timer-driven cycles only.
    drift_trigger_ratio: float = 0.0


@dataclass(frozen=True)
class Decision:
    """One entry in QCC's decision log: what it did and why.

    QCC influences routing *indirectly*, which makes its behaviour hard
    to audit from the outside; the decision log is the operator-facing
    record ("why did queries leave S3 at 14:02?").
    """

    t_ms: float
    kind: str
    detail: str


_LOG = logging.getLogger("repro.qcc")


@lru_cache(maxsize=1024)
def generalize_signature(signature: str) -> str:
    """Replace literal constants in a fragment signature with ``?``, so
    factors learned on one parameterisation apply to unseen instances of
    the same query template (the paper's Figure 5: QF3's estimate is
    calibrated before QF3 has ever executed).  A literal is what the
    tokenizer reads as a NUMBER or a STRING, exponent forms included."""
    return fold_literals(signature)[0]


class QueryCostCalibrator(Calibration):
    """QCC: transparent runtime calibration of federated cost functions."""

    def __init__(
        self,
        servers: Sequence[str],
        config: QCCConfig = QCCConfig(),
    ):
        super().__init__()
        self.config = config
        self.calibrator = CostCalibrator(epoch=self.epoch)
        self.ii_calibrator = IICalibrator()
        self.availability = AvailabilityMonitor(
            servers,
            reliability_weight=config.reliability_weight,
            epoch=self.epoch,
        )
        self.cycle = CalibrationCycleController(config.cycle)
        self.fragment_balancer = FragmentLoadBalancer(config.load_balance)
        self.global_balancer = GlobalLoadBalancer(config.load_balance)
        self._calibration_timer = PeriodicTimer(config.cycle.base_interval_ms)
        self._probe_timer = PeriodicTimer(PROBE_INTERVAL_MS)
        self._meta_wrapper = None
        self._probed_once = False
        self.decision_log: Deque[Decision] = deque(maxlen=256)
        self.compile_records = 0
        self.execution_records = 0
        self.recalibrations = 0
        self.drift_recalibrations = 0
        self.probes = 0

    # -- wiring ----------------------------------------------------------

    def bind_meta_wrapper(self, meta_wrapper) -> None:
        """Called by MW on attach; gives daemons a probe path."""
        self._meta_wrapper = meta_wrapper

    # -- MW-facing interface ------------------------------------------------

    def is_available(self, server: str, t_ms: float) -> bool:
        return self.availability.is_available(server, t_ms)

    def routing_band(self) -> Optional[float]:
        # Section 4.2's rotation may pick a global plan in the global
        # band whose fragment lies outside the fragment band.
        if self.config.enable_global_balancing:
            return None
        return self.fragment_balancer.config.band

    def calibrate(
        self, server: str, fragment_signature: str, cost: PlanCost
    ) -> PlanCost:
        """Calibrated cost = estimate × calibration factor × reliability."""
        if not self.availability.is_available(server, 0.0):
            return INFINITE_COST
        factor = self.calibrator.factor(
            server, generalize_signature(fragment_signature)
        )
        if self.config.enable_reliability:
            factor *= self.availability.reliability_factor(server)
        return cost.scaled(factor)

    def record_compile(
        self, server: str, fragment_signature: str, option: FragmentOption
    ) -> None:
        self.compile_records += 1

    def record_execution(
        self,
        server: str,
        fragment_signature: str,
        plan_signature: str,
        estimated: PlanCost,
        observed_ms: float,
        t_ms: float,
    ) -> None:
        self.execution_records += 1
        signature = generalize_signature(fragment_signature)
        self.calibrator.record(server, signature, estimated.total, observed_ms)
        self.availability.record_success(server, t_ms)

    def _log(self, t_ms: float, kind: str, detail: str) -> None:
        self.decision_log.append(Decision(t_ms=t_ms, kind=kind, detail=detail))
        get_obs().metrics.counter("qcc_decisions_total", kind=kind).inc()
        _LOG.info("[%.0fms] %s: %s", t_ms, kind, detail)

    def record_error(self, server: str, t_ms: float) -> None:
        was_up = self.availability.is_available(server, t_ms)
        self.availability.record_error(server, t_ms)
        if was_up:
            self._log(
                t_ms,
                "server-down",
                f"{server} marked unavailable after a request error; "
                "cost adjusted to infinity",
            )

    def substitute(
        self,
        option: FragmentOption,
        siblings: Sequence[FragmentOption],
        t_ms: float,
    ) -> FragmentOption:
        if not self.config.enable_fragment_balancing:
            return option
        return self.fragment_balancer.substitute(option, siblings)

    # -- II-facing interface ------------------------------------------------

    def recommend_global(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str],
        t_ms: float,
    ) -> GlobalPlan:
        if not self.config.enable_global_balancing:
            return plans[0]
        return self.global_balancer.recommend(decomposed, plans)

    def ii_factor(self) -> float:
        return self.ii_calibrator.factor

    def record_ii_execution(
        self, estimated_total: float, observed_ms: float, t_ms: float
    ) -> None:
        self.ii_calibrator.record(estimated_total, observed_ms)

    # -- daemons and the calibration cycle -------------------------------------

    def tick(self, t_ms: float) -> None:
        """Advance QCC's background work to virtual time *t_ms*."""
        if not self._probed_once or self._probe_timer.due(t_ms):
            # The first tick always probes: "the daemon programs are also
            # used to derive initial query cost calibration factors" —
            # without this, never-visited servers keep factor 1.0 and
            # look spuriously attractive.
            self._probe_timer.fire(t_ms)
            self.probe_servers(t_ms)
        if self._calibration_timer.due(t_ms):
            self._calibration_timer.fire(t_ms)
            self.recalibrate(t_ms)
        elif (
            self.config.drift_trigger_ratio > 0
            and self.calibrator.max_drift() >= self.config.drift_trigger_ratio
        ):
            # The environment moved out from under the active factors:
            # close the cycle early rather than waiting out the timer.
            self.drift_recalibrations += 1
            get_obs().metrics.counter("qcc_drift_recalibrations_total").inc()
            self._calibration_timer.fire(t_ms)
            self.recalibrate(t_ms, count_staleness=False)

    def probe_servers(self, t_ms: float) -> None:
        """Daemon pass: probe every server through the meta-wrapper."""
        if self._meta_wrapper is None:
            return
        self._probed_once = True
        for server in self._meta_wrapper.server_names():
            self.probes += 1
            get_obs().metrics.counter("qcc_probes_total", server=server).inc()
            was_up = self.availability.is_available(server, t_ms)
            try:
                rtt = self._meta_wrapper.probe(server, t_ms)
            except ServerUnavailable:
                self._probe_failed(server, t_ms, was_up)
                continue
            self.availability.record_probe(server, t_ms, rtt)
            if not was_up:
                self._log(
                    t_ms, "server-up",
                    f"{server} answered a daemon probe "
                    f"(rtt {rtt:.1f} ms); eligible for routing again",
                )
            if self.calibrator.sample_count(server) == 0:
                # Initial factor from network exploration: a server whose
                # probe RTT is large relative to nominal processing gets
                # its estimates inflated before any query has run.
                initial = (NOMINAL_PROBE_MS + rtt) / NOMINAL_PROBE_MS
                self.calibrator.set_initial_factor(server, initial)
            try:
                pair = self._meta_wrapper.probe_ratio(server, t_ms)
            except ServerUnavailable:
                # The ping just marked the server up.
                self._probe_failed(server, t_ms, True)
                continue
            if pair is not None:
                estimated, observed = pair
                if estimated > 0:
                    self.calibrator.record_probe(server, estimated, observed)

    def _probe_failed(self, server: str, t_ms: float, was_up: bool) -> None:
        self.availability.record_probe(server, t_ms, None)
        if was_up:
            self._log(
                t_ms, "server-down", f"{server} failed its daemon probe"
            )

    def recalibrate(self, t_ms: float, count_staleness: bool = True) -> None:
        """Fold histories into active factors and adapt the cycle."""
        obs = get_obs()
        self.recalibrations += 1
        obs.metrics.counter("qcc_recalibrations_total").inc()
        # Volatility and the live window state must be read before
        # folding: recalibration drains the sample windows it summarises.
        volatility = max(
            self.calibrator.max_volatility(), self.ii_calibrator.volatility()
        )
        live_ratios = self.calibrator.live_ratios()
        pending = self.calibrator.pending_samples()
        before = self.calibrator.server_factors()
        self.calibrator.recalibrate(count_staleness=count_staleness)
        self.ii_calibrator.recalibrate()
        after = self.calibrator.server_factors()
        for server, factor in after.items():
            previous = before.get(server)
            if previous is None or (
                previous > 0
                and max(factor / previous, previous / factor) >= 1.5
            ):
                self._log(
                    t_ms,
                    "factor-shift",
                    f"{server} calibration factor "
                    f"{previous if previous is not None else 1.0:.2f} -> "
                    f"{factor:.2f}",
                )
        for server, factor in after.items():
            obs.metrics.gauge("qcc_calibration_factor", server=server).set(
                factor
            )
        obs.metrics.gauge("qcc_ii_factor").set(self.ii_calibrator.factor)
        interval = self.cycle.next_interval(volatility)
        obs.metrics.gauge("qcc_cycle_interval_ms").set(interval)
        # One timeline sample per known server at every cycle boundary:
        # the per-server mechanism trace behind Figure-9-style plots.
        timeline = obs.timeline
        for server, up in sorted(self.availability.snapshot().items()):
            staleness = (
                self.replica_manager.worst_staleness(server, t_ms)
                if self.replica_manager is not None
                else None
            )
            timeline.sample(
                t_ms,
                server,
                calibration_factor=self.calibrator.factor(server),
                live_ratio=live_ratios.get(server),
                available=up,
                reliability_factor=self.availability.reliability_factor(
                    server
                ),
                pending_samples=pending.get(server, 0),
                replica_staleness_ms=staleness,
            )
        timeline.event(
            t_ms,
            "recalibration",
            detail=f"cycle {self.recalibrations}",
            value=interval,
        )
        self._calibration_timer.reschedule(interval, t_ms)

    # -- introspection ----------------------------------------------------

    def factor(self, server: str, fragment_signature: Optional[str] = None) -> float:
        if fragment_signature is not None:
            fragment_signature = generalize_signature(fragment_signature)
        return self.calibrator.factor(server, fragment_signature)

    def status(self) -> Dict[str, object]:
        """A snapshot for dashboards/tests."""
        return {
            "calibration_epoch": self.epoch.value,
            "server_factors": self.calibrator.server_factors(),
            "ii_factor": self.ii_calibrator.factor,
            "down_servers": self.availability.down_servers(),
            "cycle_interval_ms": self.cycle.current_interval_ms,
            "compile_records": self.compile_records,
            "execution_records": self.execution_records,
            "recalibrations": self.recalibrations,
            "drift_recalibrations": self.drift_recalibrations,
            "probes": self.probes,
            "recent_decisions": [
                f"[{d.t_ms:.0f}ms] {d.kind}: {d.detail}"
                for d in list(self.decision_log)[-5:]
            ],
        }
