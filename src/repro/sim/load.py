"""Server load modelling.

A server's *load level* is a dimensionless utilisation-like number in
[0, 1) produced by a schedule (what the experiment controls), and a
*contention profile* translates the level into CPU and I/O slowdown
multipliers (what the hardware exhibits).  Separating the two lets the
reproduction express the paper's observation that servers differ in how
sensitive they are to the same load (Figure 9: S3 degrades much more than
S1/S2 on query type 2).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple


class LoadSchedule:
    """Maps virtual time to a load level in [0, 1)."""

    def level(self, t_ms: float) -> float:
        raise NotImplementedError

    def note_work(self, t_ms: float, work_ms: float) -> None:
        """*work_ms* of processing was dispatched here at *t_ms*; only
        traffic-driven schedules (:class:`InducedLoad`) care."""


@dataclass(frozen=True)
class ConstantLoad(LoadSchedule):
    value: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.value < 1.0:
            raise ValueError(f"load level must be in [0, 1), got {self.value}")

    def level(self, t_ms: float) -> float:
        return self.value


class StepSchedule(LoadSchedule):
    """Piecewise-constant load: a sorted list of (start_ms, level) steps.

    Before the first step the level is 0.
    """

    def __init__(self, steps: Sequence[Tuple[float, float]]):
        ordered = sorted(steps)
        for _, level in ordered:
            if not 0.0 <= level < 1.0:
                raise ValueError(f"load level must be in [0, 1), got {level}")
        self._starts = [s for s, _ in ordered]
        self._levels = [lv for _, lv in ordered]

    def level(self, t_ms: float) -> float:
        idx = bisect.bisect_right(self._starts, t_ms) - 1
        if idx < 0:
            return 0.0
        return self._levels[idx]


class MutableLoad(LoadSchedule):
    """A load level set imperatively by the experiment harness.

    The phase runner flips servers between "Base" and "Load" (Table 1 of
    the paper) by assigning ``current``.
    """

    def __init__(self, initial: float = 0.0):
        self.current = initial

    def level(self, t_ms: float) -> float:
        return self.current

    def set(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError(f"load level must be in [0, 1), got {value}")
        self.current = value


#: Ceiling of the level traffic alone can induce.
INDUCED_CAP = 0.95


class InducedLoad(LoadSchedule):
    """Load generated by the query traffic itself.

    Section 4's motivation: "if there is a large number of similar
    queries that use the same plan, then the remote servers involved in
    this plan can get overloaded."  This schedule closes that feedback
    loop: each unit of work dispatched to the server raises its load
    level, which decays exponentially with time.  A round-robin load
    balancer genuinely helps under this model; always-cheapest routing
    creates the hot spot the paper describes.

    ``level = min(INDUCED_CAP, gain * W)`` where W is the
    exponentially-decayed sum of recent work (ms), with time constant
    ``decay_ms``.  A static ``base`` schedule (e.g. a phase level) is
    added underneath.
    """

    def __init__(
        self,
        gain: float = 0.002,
        decay_ms: float = 2_000.0,
        base: Optional[LoadSchedule] = None,
    ):
        if gain < 0 or decay_ms <= 0:
            raise ValueError("invalid induced-load parameters")
        self.gain = gain
        self.decay_ms = decay_ms
        self.base = base if base is not None else ConstantLoad(0.0)
        self._work = 0.0
        self._last_t = 0.0

    def _decay_to(self, t_ms: float) -> None:
        if t_ms > self._last_t:
            self._work *= math.exp(-(t_ms - self._last_t) / self.decay_ms)
            self._last_t = t_ms

    def note_work(self, t_ms: float, work_ms: float) -> None:
        """Register *work_ms* of processing dispatched at time *t_ms*."""
        self._decay_to(t_ms)
        self._work += max(0.0, work_ms)

    def level(self, t_ms: float) -> float:
        self._decay_to(t_ms)
        induced = min(INDUCED_CAP, self.gain * self._work)
        return min(0.949, self.base.level(t_ms) + induced)


@dataclass(frozen=True)
class ContentionProfile:
    """How a load level inflates this server's service times.

    The multipliers follow an M/M/1-style ``1 / (1 - sensitivity*level)``
    curve, separately for CPU-bound and I/O-bound work.  ``sensitivity``
    near 1 makes the server collapse under load; near 0 makes it immune.
    """

    cpu_sensitivity: float = 0.9
    io_sensitivity: float = 0.9

    def __post_init__(self) -> None:
        for value in (self.cpu_sensitivity, self.io_sensitivity):
            if not 0.0 <= value <= 1.0:
                raise ValueError(
                    f"sensitivity must be in [0, 1], got {value}"
                )

    def cpu_multiplier(self, level: float) -> float:
        return _mm1(self.cpu_sensitivity, level)

    def io_multiplier(self, level: float) -> float:
        return _mm1(self.io_sensitivity, level)

    def demand_ms(self, profile, meter, level: float) -> float:
        """Service demand of *meter*'s work on *profile*'s hardware at
        load *level*: the one place metered CPU and I/O become ms."""
        return (
            profile.cpu_ms(meter.cpu_ms) * self.cpu_multiplier(level)
            + profile.io_ms(meter.io_ms) * self.io_multiplier(level)
        )


def _mm1(sensitivity: float, level: float) -> float:
    effective = min(0.95, max(0.0, sensitivity * level))
    return 1.0 / (1.0 - effective)
