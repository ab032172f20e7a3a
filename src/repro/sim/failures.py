"""Availability modelling: outages and flaky error injection."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .rng import derive_rng


class AvailabilitySchedule:
    """Whether a server is reachable at a point in virtual time."""

    def is_up(self, t_ms: float) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class AlwaysUp(AvailabilitySchedule):
    def is_up(self, t_ms: float) -> bool:
        return True


class OutageSchedule(AvailabilitySchedule):
    """Down during each [start, end) interval.

    Intervals are normalised at construction: overlapping or touching
    windows merge into one, so lookups can binary-search the (disjoint,
    sorted) interval starts.  ``is_up`` is called once per dispatch in
    hot simulation loops — a linear scan over a chaos-generated schedule
    with many windows would dominate them.
    """

    def __init__(self, outages: Sequence[Tuple[float, float]]):
        for start, end in outages:
            if end <= start:
                raise ValueError(f"empty outage interval [{start}, {end})")
        merged: List[Tuple[float, float]] = []
        for start, end in sorted(outages):
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        self._outages = merged
        self._starts = [start for start, _ in merged]

    def is_up(self, t_ms: float) -> bool:
        index = bisect.bisect_right(self._starts, t_ms) - 1
        if index < 0:
            return True
        return t_ms >= self._outages[index][1]

    @property
    def outages(self) -> List[Tuple[float, float]]:
        return list(self._outages)


class ErrorInjector:
    """Injects transient request errors with a fixed probability.

    Deterministic given (seed, server name): the nth request to a server
    always behaves identically, which keeps reliability-factor tests
    reproducible.
    """

    def __init__(self, error_rate: float = 0.0, seed: int = 0, name: str = ""):
        if not 0.0 <= error_rate < 1.0:
            raise ValueError("error rate must be in [0, 1)")
        self.error_rate = error_rate
        self._rng = derive_rng(seed, "errors", name)

    def should_fail(self, t_ms: float = 0.0) -> bool:
        if self.error_rate <= 0.0:
            return False
        return self._rng.random() < self.error_rate


class WindowedErrorInjector(ErrorInjector):
    """Flaky-error injection active only inside scheduled windows.

    ``windows`` is a sequence of ``(start_ms, end_ms, rate)`` triples; a
    request at time *t* falling in a window fails with that window's
    rate.  Requests outside every window never fail and never consume
    randomness, so the decision for the nth in-window request is a pure
    function of (seed, name, n) — fault schedules stay byte-reproducible
    across reruns of a scenario.
    """

    def __init__(
        self,
        windows: Sequence[Tuple[float, float, float]],
        seed: int = 0,
        name: str = "",
    ):
        super().__init__(0.0, seed=seed, name=name)
        for start, end, rate in windows:
            if end <= start:
                raise ValueError(f"empty error window [{start}, {end})")
            # Unlike the steady-state injector, a window may hard-fail
            # (rate 1.0): chaos schedules use it to model a server that
            # errors on every request for a bounded interval.
            if not 0.0 <= rate <= 1.0:
                raise ValueError("error rate must be in [0, 1]")
        self.windows = sorted(windows)

    def rate_at(self, t_ms: float) -> float:
        for start, end, rate in self.windows:
            if start <= t_ms < end:
                return rate
            if t_ms < start:
                break
        return 0.0

    def should_fail(self, t_ms: float = 0.0) -> bool:
        rate = self.rate_at(t_ms)
        if rate <= 0.0:
            return False
        return self._rng.random() < rate


class ServerUnavailable(Exception):
    """Raised when a request reaches a server that is down or erroring."""

    def __init__(self, server: str, t_ms: float, transient: bool = False):
        self.server = server
        self.t_ms = t_ms
        self.transient = transient
        kind = "transient error" if transient else "unavailable"
        super().__init__(f"server {server} {kind} at t={t_ms:.1f}ms")
