"""Response-time statistics and gain computations.

The distribution summaries are computed by the observability layer's
:class:`repro.obs.Histogram` — the harness keeps only the experiment-
facing dataclass and the gain math, so there is a single percentile
implementation shared by dashboards, metrics and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..numeric import left_sum
from ..obs import Histogram, percentile

__all__ = [
    "ResponseStats",
    "mean",
    "percent_gain",
    "percentile",
]


@dataclass(frozen=True)
class ResponseStats:
    """Summary of a set of response times (ms)."""

    count: int
    mean: float
    median: float
    p95: float
    minimum: float
    maximum: float
    p99: float = 0.0

    @staticmethod
    def from_histogram(histogram: Histogram) -> "ResponseStats":
        """Summarise an obs-layer histogram's retained samples."""
        p50, p95, p99 = histogram.quantiles((0.50, 0.95, 0.99))
        return ResponseStats(
            count=histogram.count,
            mean=histogram.mean,
            median=p50,
            p95=p95,
            minimum=histogram.minimum,
            maximum=histogram.maximum,
            p99=p99,
        )

    @staticmethod
    def from_samples(samples: Sequence[float]) -> "ResponseStats":
        histogram = Histogram(capacity=max(1, len(samples)))
        for sample in samples:
            histogram.observe(sample)
        return ResponseStats.from_histogram(histogram)


def percent_gain(baseline: float, treatment: float) -> float:
    """How much faster *treatment* is than *baseline*, in percent.

    Matches the paper's 'performance gain': 50% means the treatment's
    response time is half the baseline's.
    """
    if baseline <= 0.0:
        return 0.0
    return (baseline - treatment) / baseline * 100.0


def mean(values: Sequence[float]) -> float:
    return left_sum(values) / len(values) if values else 0.0
