"""Allocation-cheap metrics primitives for the observability layer.

Three instrument kinds — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` — are created on demand from a :class:`MetricsRegistry`
and keyed by name plus labels (typically ``server=...`` or
``fragment=...``).  The registry hands back the *same* instrument object
for the same key, so hot-path call sites pay one dict lookup and one
method call per observation.

A parallel family of null instruments (:data:`NULL_REGISTRY`) accepts
every call and records nothing; it is the default sink, which keeps the
instrumented hot path zero-overhead until ``repro.obs.configure()`` is
called.

The percentile math lives here (:func:`percentile`) and is consumed by
both :class:`Histogram` and the experiment harness's ``ResponseStats``,
so there is exactly one interpolation rule in the codebase.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple


def percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already sorted sequence."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can move in both directions (e.g. server up/down)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Sample distribution with p50/p95/p99 summaries.

    Samples are kept in a bounded ring (newest win), so a long-running
    federation cannot grow memory without bound; ``count``/``total``/
    ``minimum``/``maximum`` still reflect every observation ever made.
    """

    __slots__ = ("_samples", "_capacity", "_next", "count", "total", "_min", "_max")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._samples: List[float] = []
        self._capacity = capacity
        self._next = 0
        self.count = 0
        self.total = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._samples) < self._capacity:
            self._samples.append(value)
        else:
            self._samples[self._next] = value
            self._next = (self._next + 1) % self._capacity

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def samples(self) -> List[float]:
        """The retained samples, oldest first."""
        if len(self._samples) < self._capacity:
            return list(self._samples)
        return self._samples[self._next:] + self._samples[: self._next]

    def percentile(self, q: float) -> float:
        return percentile(sorted(self._samples), q)

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        ordered = sorted(self._samples)
        return [percentile(ordered, q) for q in qs]

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    @property
    def minimum(self) -> float:
        """All-time minimum (not just the retained ring)."""
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        """All-time maximum (not just the retained ring)."""
        return self._max if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        p50, p95, p99 = self.quantiles((0.50, 0.95, 0.99))
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }


MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]


def _key(name: str, labels: Dict[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


#: Characters in a label value that force quoted/escaped rendering —
#: unescaped they would corrupt the ``name{k=v,...}`` key grammar.
_UNSAFE_LABEL_CHARS = frozenset('",=\\{}\n')


def _render_label_value(value: str) -> str:
    if not _UNSAFE_LABEL_CHARS.intersection(value):
        return value
    escaped = (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
    return f'"{escaped}"'


def _render_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={_render_label_value(v)}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Get-or-create home for every instrument, keyed by name + labels."""

    def __init__(self, histogram_capacity: int = 1024) -> None:
        self._histogram_capacity = histogram_capacity
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    def counter(self, name: str, **labels: object) -> Counter:
        key = _key(name, labels)
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = self._counters[key] = Counter()
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = _key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge()
        return instrument

    def histogram(self, name: str, **labels: object) -> Histogram:
        key = _key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(
                self._histogram_capacity
            )
        return instrument

    # -- export ----------------------------------------------------------

    def counter_items(self) -> List[Tuple[MetricKey, Counter]]:
        """Every counter as sorted ``(key, instrument)`` pairs."""
        return sorted(self._counters.items())

    def gauge_items(self) -> List[Tuple[MetricKey, Gauge]]:
        """Every gauge as sorted ``(key, instrument)`` pairs."""
        return sorted(self._gauges.items())

    def histogram_items(self) -> List[Tuple[MetricKey, Histogram]]:
        """Every histogram as sorted ``(key, instrument)`` pairs."""
        return sorted(self._histograms.items())

    def counter_value(self, name: str, **labels: object) -> float:
        instrument = self._counters.get(_key(name, labels))
        return instrument.value if instrument is not None else 0.0

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        instrument = self._gauges.get(_key(name, labels))
        return instrument.value if instrument is not None else None

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serialisable dump of every instrument."""
        return {
            "counters": {
                _render_key(key): counter.value
                for key, counter in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(key): gauge.value
                for key, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(key): histogram.snapshot()
                for key, histogram in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable one-line-per-metric dump."""
        lines: List[str] = []
        for key, counter in sorted(self._counters.items()):
            lines.append(f"{_render_key(key)} {counter.value:g}")
        for key, gauge in sorted(self._gauges.items()):
            lines.append(f"{_render_key(key)} {gauge.value:g}")
        for key, histogram in sorted(self._histograms.items()):
            snap = histogram.snapshot()
            lines.append(
                f"{_render_key(key)} count={snap['count']:g} "
                f"mean={snap['mean']:.2f} p50={snap['p50']:.2f} "
                f"p95={snap['p95']:.2f} p99={snap['p99']:.2f}"
            )
        return "\n".join(lines)


class NullCounter(Counter):
    """Accepts increments, records nothing."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = NullCounter()
_NULL_GAUGE = NullGauge()
_NULL_HISTOGRAM = NullHistogram()


class NullRegistry(MetricsRegistry):
    """The no-op sink: every lookup returns a shared null instrument.

    No allocation, no keying, no sample storage — the instrumented hot
    path degenerates to a couple of attribute lookups and empty method
    calls per query.
    """

    def __init__(self) -> None:
        super().__init__(histogram_capacity=1)

    def counter(self, name: str, **labels: object) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: object) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **labels: object) -> Histogram:
        return _NULL_HISTOGRAM


NULL_REGISTRY = NullRegistry()
