"""Dynamic adjustment of the calibration cycle (Section 3.4).

The re-calibration frequency trades responsiveness against stability:
too slow and QCC routes on stale factors after a load shift; too fast
and factors chase noise.  The controller scales the cycle inversely with
the observed volatility (coefficient of variation) of recent calibration
ratios, clamped to [min, max].
"""

from __future__ import annotations

from dataclasses import dataclass

#: Volatility at which the cycle equals the base interval.
TARGET_VOLATILITY = 0.25


@dataclass(frozen=True)
class CycleConfig:
    """Controller parameters (all times in virtual ms)."""

    base_interval_ms: float = 2_000.0
    min_interval_ms: float = 250.0
    max_interval_ms: float = 30_000.0

    def __post_init__(self) -> None:
        if not (
            0 < self.min_interval_ms
            <= self.base_interval_ms
            <= self.max_interval_ms
        ):
            raise ValueError(
                "intervals must satisfy 0 < min <= base <= max"
            )


class CalibrationCycleController:
    """Computes the next calibration interval from observed volatility."""

    def __init__(self, config: CycleConfig = CycleConfig()):
        self.config = config
        self.current_interval_ms = config.base_interval_ms

    def next_interval(self, volatility: float) -> float:
        """Adapt the interval: high volatility → recalibrate sooner.

        At ``volatility == TARGET_VOLATILITY`` the interval is the base;
        twice the target halves it, half the target doubles it.
        """
        cfg = self.config
        if volatility <= 0.0:
            interval = cfg.max_interval_ms
        else:
            interval = cfg.base_interval_ms * (TARGET_VOLATILITY / volatility)
        self.current_interval_ms = min(
            cfg.max_interval_ms, max(cfg.min_interval_ms, interval)
        )
        return self.current_interval_ms
