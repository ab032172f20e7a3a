"""Per-priority-class SLO tracking with multi-window burn-rate alerts.

The admission layer promises each priority class a latency budget; this
module checks whether the promise was *kept*.  An :class:`SLOMonitor`
ingests query outcomes from a load-generation run — completions with
their response times, sheds, failures — classifies each against the
class's :class:`SLOPolicy` (good = completed within ``target_ms``), and
evaluates the classic SRE multi-window burn-rate alert rule on the
virtual clock:

    burn(W, t) = bad_fraction(events in (t - W, t]) / (1 - objective)

A :class:`BurnWindow` fires at checkpoint ``t`` when *both* its long and
short windows burn at or above its threshold — the long window proves
the breach is significant, the short window proves it is still
happening.  Two windows are configured by default, a fast/page pair and
a slow/ticket pair, scaled to the load generator's virtual-millisecond
runs rather than the SRE book's wall-clock days.

Everything is a pure function of the ingested event sequence and the
checkpoint grid: no wall clock, no randomness — two identical loadgen
runs produce byte-identical verdicts (CI ``cmp``'s the flight-recorder
artifact to prove it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Fraction of a class's queries that must be good (complete within the
#: target) unless a policy overrides it.
DEFAULT_OBJECTIVE = 0.95

#: Latency target for classes whose admission budget is unbounded.
DEFAULT_TARGET_MS = 1000.0


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window alert rule: long + short window, one threshold."""

    label: str
    long_ms: float
    short_ms: float
    #: Both windows must burn error budget at >= this multiple of the
    #: sustainable rate for the alert to fire.
    threshold: float

    def __post_init__(self) -> None:
        if self.long_ms <= 0 or self.short_ms <= 0:
            raise ValueError(f"window spans must be positive: {self}")
        if self.short_ms > self.long_ms:
            raise ValueError(f"short window exceeds long window: {self}")
        if self.threshold <= 0:
            raise ValueError(f"threshold must be positive: {self}")


#: Fast (page-like) and slow (ticket-like) window pairs, sized for
#: multi-second virtual-time load runs.
DEFAULT_WINDOWS: Tuple[BurnWindow, ...] = (
    BurnWindow("fast", long_ms=500.0, short_ms=125.0, threshold=8.0),
    BurnWindow("slow", long_ms=2000.0, short_ms=500.0, threshold=2.0),
)


@dataclass(frozen=True)
class SLOPolicy:
    """What one priority class is promised, in checkable form."""

    klass: str
    target_ms: float = DEFAULT_TARGET_MS
    objective: float = DEFAULT_OBJECTIVE
    windows: Tuple[BurnWindow, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )
        if self.target_ms <= 0:
            raise ValueError(f"non-positive target {self.target_ms}")

    @property
    def error_budget(self) -> float:
        return 1.0 - self.objective


def policy_for_class(
    spec,
    objective: float = DEFAULT_OBJECTIVE,
    default_target_ms: float = DEFAULT_TARGET_MS,
) -> SLOPolicy:
    """Derive a policy from a :class:`~repro.fed.admission.PriorityClass`:
    the latency target is the class's admission budget when finite,
    otherwise ``default_target_ms``."""
    target = (
        spec.budget_ms
        if math.isfinite(spec.budget_ms)
        else default_target_ms
    )
    return SLOPolicy(
        klass=spec.name,
        target_ms=target,
        objective=objective,
    )


@dataclass(frozen=True)
class SLOEvent:
    """One query outcome as the SLO sees it."""

    t_ms: float
    good: bool
    kind: str  # "completed" | "shed" | "failed"


@dataclass(frozen=True)
class BurnAlert:
    """Verdict of one window rule swept over the checkpoint grid."""

    window: str
    threshold: float
    fired: bool
    #: First checkpoint (virtual ms) at which both windows burned over
    #: threshold; None when the alert never fired.
    first_fired_ms: Optional[float]
    #: How many checkpoints were in breach.
    checkpoints_fired: int
    peak_long_burn: float
    peak_short_burn: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "window": self.window,
            "threshold": self.threshold,
            "fired": self.fired,
            "first_fired_ms": self.first_fired_ms,
            "checkpoints_fired": self.checkpoints_fired,
            "peak_long_burn": self.peak_long_burn,
            "peak_short_burn": self.peak_short_burn,
        }


@dataclass(frozen=True)
class ClassVerdict:
    """One class's end-of-run SLO verdict."""

    klass: str
    target_ms: float
    objective: float
    total: int
    good: int
    bad: int
    shed: int
    failed: int
    #: Fraction good (None when the class saw no traffic).
    compliance: Optional[float]
    #: Error budget consumed over the whole run (1.0 = exactly spent).
    budget_burned: float
    alerts: Tuple[BurnAlert, ...]

    @property
    def breached(self) -> bool:
        if any(alert.fired for alert in self.alerts):
            return True
        return self.compliance is not None and self.compliance < self.objective

    def to_dict(self) -> Dict[str, object]:
        return {
            "class": self.klass,
            "target_ms": self.target_ms,
            "objective": self.objective,
            "total": self.total,
            "good": self.good,
            "bad": self.bad,
            "shed": self.shed,
            "failed": self.failed,
            "compliance": self.compliance,
            "budget_burned": self.budget_burned,
            "breached": self.breached,
            "alerts": [alert.to_dict() for alert in self.alerts],
        }


@dataclass(frozen=True)
class SLOReport:
    """Every class's verdict for one run, plus the evaluation grid."""

    end_ms: float
    step_ms: float
    verdicts: Tuple[ClassVerdict, ...]

    @property
    def breached(self) -> bool:
        return any(v.breached for v in self.verdicts)

    def to_dict(self) -> Dict[str, object]:
        return {
            "end_ms": self.end_ms,
            "step_ms": self.step_ms,
            "breached": self.breached,
            "classes": {v.klass: v.to_dict() for v in self.verdicts},
        }

    def render(self) -> str:
        from ..harness.report import ascii_table

        rows = []
        for v in self.verdicts:
            fired = [a for a in v.alerts if a.fired]
            alert_note = (
                ", ".join(
                    f"{a.window}@{a.first_fired_ms:.0f}ms" for a in fired
                )
                or "-"
            )
            rows.append(
                [
                    v.klass,
                    f"{v.target_ms:g}",
                    f"{v.objective:.2f}",
                    v.total,
                    v.good,
                    v.bad,
                    (
                        f"{v.compliance:.3f}"
                        if v.compliance is not None
                        else "-"
                    ),
                    f"{v.budget_burned:.2f}",
                    "BREACH" if v.breached else "ok",
                    alert_note,
                ]
            )
        table = ascii_table(
            [
                "Class", "Target", "Obj", "Total", "Good", "Bad",
                "Compliance", "Burned", "Verdict", "Alerts",
            ],
            rows,
        )
        return table

    def emit_metrics(self, registry) -> None:
        """Mirror the verdicts into a metrics registry (Prometheus
        surface: ``repro metrics``/``repro slo`` exposition)."""
        for v in self.verdicts:
            if v.compliance is not None:
                registry.gauge("slo_compliance", klass=v.klass).set(
                    v.compliance
                )
            registry.gauge("slo_budget_burned", klass=v.klass).set(
                v.budget_burned
            )
            for alert in v.alerts:
                if alert.fired:
                    registry.counter(
                        "slo_alerts_total",
                        klass=v.klass,
                        window=alert.window,
                    ).inc()


class SLOMonitor:
    """Accumulates query outcomes and evaluates the burn-rate rules."""

    def __init__(self, policies: Sequence[SLOPolicy]):
        if not policies:
            raise ValueError("at least one SLO policy is required")
        self.policies: Dict[str, SLOPolicy] = {}
        for policy in policies:
            if policy.klass in self.policies:
                raise ValueError(f"duplicate SLO policy for {policy.klass!r}")
            self.policies[policy.klass] = policy
        self._events: Dict[str, List[SLOEvent]] = {
            klass: [] for klass in self.policies
        }

    # -- ingestion -------------------------------------------------------

    def _policy(self, klass: str) -> SLOPolicy:
        policy = self.policies.get(klass)
        if policy is None:
            raise KeyError(
                f"no SLO policy for class {klass!r}; "
                f"configured: {sorted(self.policies)}"
            )
        return policy

    def observe_completion(
        self, klass: str, finished_ms: float, latency_ms: float
    ) -> None:
        policy = self._policy(klass)
        self._events[klass].append(
            SLOEvent(finished_ms, latency_ms <= policy.target_ms, "completed")
        )

    def observe_shed(self, klass: str, t_ms: float) -> None:
        self._policy(klass)
        self._events[klass].append(SLOEvent(t_ms, False, "shed"))

    def observe_failure(self, klass: str, t_ms: float) -> None:
        self._policy(klass)
        self._events[klass].append(SLOEvent(t_ms, False, "failed"))

    def ingest(self, handles: Sequence) -> None:
        """Feed a loadgen run's :class:`~repro.fed.concurrent.QueryHandle`
        list.  Completions are stamped at their finish instant, sheds
        and failures at submission."""
        for handle in handles:
            if handle.result is not None:
                self.observe_completion(
                    handle.klass,
                    handle.submitted_ms + handle.result.response_ms,
                    handle.result.response_ms,
                )
            elif handle.shed is not None:
                self.observe_shed(handle.klass, handle.submitted_ms)
            elif handle.error is not None:
                self.observe_failure(handle.klass, handle.submitted_ms)

    # -- evaluation ------------------------------------------------------

    def burn_rate(self, klass: str, t_ms: float, window_ms: float) -> float:
        """Error-budget burn multiple over ``(t_ms - window_ms, t_ms]``.

        1.0 means the class is consuming budget exactly at the
        sustainable rate; above 1.0 the budget runs out early.  Windows
        with no events burn nothing.
        """
        policy = self._policy(klass)
        lo = t_ms - window_ms
        total = 0
        bad = 0
        for event in self._events[klass]:
            if lo < event.t_ms <= t_ms:
                total += 1
                if not event.good:
                    bad += 1
        if total == 0:
            return 0.0
        return (bad / total) / policy.error_budget

    def sweep(
        self, klass: str, end_ms: float, step_ms: float
    ) -> Tuple[BurnAlert, ...]:
        """Evaluate every window rule on the checkpoint grid
        ``step, 2*step, ...`` up to (and including) ``end_ms``."""
        if step_ms <= 0:
            raise ValueError(f"step must be positive, got {step_ms}")
        policy = self._policy(klass)
        checkpoints = max(1, int(math.ceil(end_ms / step_ms)))
        alerts: List[BurnAlert] = []
        for window in policy.windows:
            first_fired: Optional[float] = None
            fired_count = 0
            peak_long = 0.0
            peak_short = 0.0
            for i in range(1, checkpoints + 1):
                t = i * step_ms
                long_burn = self.burn_rate(klass, t, window.long_ms)
                short_burn = self.burn_rate(klass, t, window.short_ms)
                peak_long = max(peak_long, long_burn)
                peak_short = max(peak_short, short_burn)
                if (
                    long_burn >= window.threshold
                    and short_burn >= window.threshold
                ):
                    fired_count += 1
                    if first_fired is None:
                        first_fired = t
            alerts.append(
                BurnAlert(
                    window=window.label,
                    threshold=window.threshold,
                    fired=first_fired is not None,
                    first_fired_ms=first_fired,
                    checkpoints_fired=fired_count,
                    peak_long_burn=peak_long,
                    peak_short_burn=peak_short,
                )
            )
        return tuple(alerts)

    def report(
        self, end_ms: float, step_ms: Optional[float] = None
    ) -> SLOReport:
        """End-of-run verdicts for every class.

        ``step_ms`` defaults to a quarter of the smallest short window
        so no burst shorter than a window can slip between checkpoints
        unobserved.
        """
        if step_ms is None:
            shortest = min(
                window.short_ms
                for policy in self.policies.values()
                for window in policy.windows
            )
            step_ms = shortest / 4.0
        verdicts: List[ClassVerdict] = []
        for klass, policy in self.policies.items():
            events = self._events[klass]
            total = len(events)
            good = sum(1 for e in events if e.good)
            bad = total - good
            budget_burned = (
                (bad / total) / policy.error_budget if total else 0.0
            )
            verdicts.append(
                ClassVerdict(
                    klass=klass,
                    target_ms=policy.target_ms,
                    objective=policy.objective,
                    total=total,
                    good=good,
                    bad=bad,
                    shed=sum(1 for e in events if e.kind == "shed"),
                    failed=sum(1 for e in events if e.kind == "failed"),
                    compliance=(good / total) if total else None,
                    budget_burned=budget_burned,
                    alerts=self.sweep(klass, end_ms, step_ms),
                )
            )
        return SLOReport(
            end_ms=end_ms, step_ms=step_ms, verdicts=tuple(verdicts)
        )
