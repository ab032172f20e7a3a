"""Virtual time.

All response times in the reproduction are computed on a deterministic
virtual timeline measured in milliseconds.  Nothing sleeps; experiments
that take "hours" of simulated time run in milliseconds of wall clock.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing virtual clock (milliseconds)."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Move time forward by *delta_ms* and return the new time."""
        if delta_ms < 0:
            raise ValueError(f"cannot move time backwards by {delta_ms}")
        self._now += delta_ms
        return self._now

    def advance_to(self, t_ms: float) -> float:
        """Move time forward to *t_ms* (no-op if already past it)."""
        if t_ms > self._now:
            self._now = t_ms
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VirtualClock t={self._now:.3f}ms>"


class PeriodicTimer:
    """Fires at a fixed (but adjustable) period on a virtual clock.

    QCC uses these for daemon probes and calibration cycles; the cycle
    controller adjusts ``period_ms`` between firings (Section 3.4).
    """

    def __init__(self, period_ms: float):
        if period_ms <= 0:
            raise ValueError("period must be positive")
        self.period_ms = float(period_ms)
        self._next_fire = self.period_ms

    def due(self, now_ms: float) -> bool:
        return now_ms >= self._next_fire

    def fire(self, now_ms: float) -> None:
        """Acknowledge a firing and schedule the next one."""
        # Schedule relative to now rather than the previous deadline so a
        # long gap doesn't cause a burst of catch-up firings.
        self._next_fire = now_ms + self.period_ms

    def reschedule(self, period_ms: float, now_ms: float) -> None:
        if period_ms <= 0:
            raise ValueError("period must be positive")
        self.period_ms = float(period_ms)
        self._next_fire = now_ms + self.period_ms
