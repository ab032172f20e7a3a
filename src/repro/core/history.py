"""Aggregated histories backing QCC's calibration factors.

Section 3.4: "QCC maintains aggregated histories of the various dynamic
values associated with the remote source access costs to compute and
maintain running averages."  Two primitives:

* :class:`RunningStats` — Welford-style streaming mean/variance;
* :class:`RatioHistory` — a sliding window of (estimated, observed)
  pairs whose ratio-of-averages is the calibration factor of Section 3.1.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Tuple

from ..numeric import left_sum


class RunningStats:
    """Streaming count/mean/variance (Welford's algorithm)."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def coefficient_of_variation(self) -> float:
        """stddev / |mean|; 0 when undefined."""
        if self.count < 2 or self.mean == 0.0:
            return 0.0
        return self.stddev / abs(self.mean)


class RatioHistory:
    """Sliding window of (estimated, observed) cost pairs.

    The calibration factor is the ratio of the *average* observed cost to
    the *average* estimated cost over the window — not the average of
    per-query ratios — exactly as the paper defines it, which weights
    expensive fragments more heavily and is robust to tiny estimates.
    """

    def __init__(self, window: int = 32):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._pairs: Deque[Tuple[float, float]] = deque(maxlen=window)
        #: lifetime number of recorded pairs (the deque saturates at
        #: `window`; staleness detection needs the monotone total)
        self.total_recorded = 0

    def record(self, estimated: float, observed: float) -> None:
        if estimated < 0 or observed < 0:
            raise ValueError("costs must be non-negative")
        self._pairs.append((estimated, observed))
        self.total_recorded += 1

    @property
    def count(self) -> int:
        return len(self._pairs)

    def ratio(self, default: float = 1.0) -> float:
        """avg(observed) / avg(estimated); *default* when empty."""
        if not self._pairs:
            return default
        sum_estimated = left_sum(e for e, _ in self._pairs)
        sum_observed = left_sum(o for _, o in self._pairs)
        if sum_estimated <= 0.0:
            return default
        return sum_observed / sum_estimated

    def volatility(self) -> float:
        """Coefficient of variation of the per-pair ratios in the window.

        Drives the dynamic calibration-cycle adjustment (Section 3.4):
        jittery ratios mean the environment is changing fast and QCC
        should recalibrate more often.
        """
        ratios = [o / e for e, o in self._pairs if e > 0.0]
        if len(ratios) < 2:
            return 0.0
        stats = RunningStats()
        for value in ratios:
            stats.update(value)
        return stats.coefficient_of_variation

    def clear(self) -> None:
        self._pairs.clear()

    def pairs(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(self._pairs)
