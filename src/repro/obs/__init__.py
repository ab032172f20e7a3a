"""``repro.obs``: the observability layer (metrics + tracing + logging).

The paper's whole contribution rests on *observing* estimated-vs-actual
fragment costs; this package makes those observations visible to an
operator.  It has three parts:

* a :class:`~repro.obs.metrics.MetricsRegistry` of counters, gauges and
  histograms (p50/p95/p99), keyed by server/fragment labels;
* a per-query :class:`~repro.obs.trace.Tracer` producing structured span
  trees (decompose → plan enumeration → calibration lookup → route →
  dispatch → merge), exportable as JSON;
* a bounded federation :class:`~repro.obs.timeline.Timeline` of
  per-server calibration/availability samples and transition events;
* stdlib-``logging`` wiring under the ``repro`` logger namespace.

Two siblings build on this package: :mod:`repro.obs.profile` (the
per-operator EXPLAIN ANALYZE profiler, enabled separately through
``enable_profiling()``/``profiling()``) and :mod:`repro.obs.export`
(Prometheus text exposition, Chrome trace-event JSON, JSONL sink).

Everything is **off by default**: the module-level state starts as a
null sink whose instruments accept calls and record nothing, so the
instrumented hot path costs a handful of no-op method calls per query.
Call :func:`configure` to start recording::

    import repro.obs as obs

    obs.configure()                   # metrics + tracing + INFO logs
    ...  # run federated queries
    print(obs.get_obs().metrics.render())
    print(obs.get_obs().tracer.last().to_json())

Components obtain the active sink with :func:`get_obs` at call time, so
``configure()`` takes effect even for integrators built beforehand.
"""

from __future__ import annotations

import logging
from typing import Optional

from .export import (
    JsonlSink,
    chrome_trace_events,
    chrome_trace_json,
    escape_label_value,
    render_prometheus,
)
from .flight import decompose_trace
from .metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    percentile,
)
from .profile import (
    NULL_PROFILER,
    NullProfiler,
    OperatorProfiler,
    OperatorStats,
    PlanProfile,
    disable_profiling,
    enable_profiling,
    get_profiler,
    profiling,
    render_analyzed_plan,
)
from .slo import (
    DEFAULT_OBJECTIVE,
    DEFAULT_TARGET_MS,
    DEFAULT_WINDOWS,
    BurnAlert,
    BurnWindow,
    ClassVerdict,
    SLOMonitor,
    SLOPolicy,
    SLOReport,
    policy_for_class,
)
from .timeline import (
    NULL_TIMELINE,
    NullTimeline,
    Timeline,
    TimelineEvent,
    TimelineSample,
)
from .trace import (
    DEFAULT_MAX_SPANS,
    NULL_SPAN,
    NULL_TRACE,
    NULL_TRACER,
    NullTracer,
    QueryTrace,
    Span,
    Tracer,
)

__all__ = [
    "BurnAlert",
    "BurnWindow",
    "ClassVerdict",
    "Counter",
    "DEFAULT_MAX_SPANS",
    "DEFAULT_OBJECTIVE",
    "DEFAULT_TARGET_MS",
    "DEFAULT_WINDOWS",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullProfiler",
    "NullRegistry",
    "NullTimeline",
    "NullTracer",
    "NULL_PROFILER",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "NULL_TIMELINE",
    "NULL_TRACE",
    "NULL_TRACER",
    "Observability",
    "OperatorProfiler",
    "OperatorStats",
    "PlanProfile",
    "QueryTrace",
    "SLOMonitor",
    "SLOPolicy",
    "SLOReport",
    "Span",
    "Timeline",
    "TimelineEvent",
    "TimelineSample",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
    "configure",
    "decompose_trace",
    "disable",
    "disable_profiling",
    "enable_profiling",
    "escape_label_value",
    "get_obs",
    "get_profiler",
    "logger",
    "percentile",
    "policy_for_class",
    "profiling",
    "render_analyzed_plan",
    "render_prometheus",
]


class Observability:
    """The bundle handed to instrumented components: metrics + tracer."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        tracer: Tracer,
        enabled: bool,
        timeline: Timeline = NULL_TIMELINE,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.timeline = timeline
        self.enabled = enabled

    @classmethod
    def disabled(cls) -> "Observability":
        return cls(
            metrics=NULL_REGISTRY,
            tracer=NULL_TRACER,
            enabled=False,
            timeline=NULL_TIMELINE,
        )


_OBS = Observability.disabled()


def get_obs() -> Observability:
    """The active observability sink (the null sink until configured)."""
    return _OBS


def logger() -> logging.Logger:
    """The ``repro`` namespace's logger."""
    return logging.getLogger("repro")


def configure(
    metrics: bool = True,
    tracing: bool = True,
    log_level: Optional[int] = logging.INFO,
    timeline: bool = True,
) -> Observability:
    """Install a live observability sink and return it.

    ``metrics``/``tracing``/``timeline`` select which parts record; a
    disabled part keeps its null implementation.  The tracer retains
    the last ``TRACE_CAPACITY`` finished traces; each trace's span tree
    is bounded by ``DEFAULT_MAX_SPANS`` (drops are counted in
    ``trace_spans_dropped_total``, never silent).  ``log_level`` (None
    to leave logging untouched) attaches a stream handler to the
    ``repro`` logger unless the application already configured one.
    """
    global _OBS
    registry = MetricsRegistry() if metrics else NULL_REGISTRY
    tracer = Tracer() if tracing else NULL_TRACER
    if tracing and metrics:
        # Registered eagerly so the family appears in every exposition
        # (and the committed metric catalog) even before the first drop.
        tracer.drop_counter = registry.counter("trace_spans_dropped_total")
    _OBS = Observability(
        metrics=registry,
        tracer=tracer,
        enabled=metrics or tracing or timeline,
        timeline=Timeline() if timeline else NULL_TIMELINE,
    )
    if log_level is not None:
        root = logger()
        root.setLevel(log_level)
        if not root.handlers:
            handler = logging.StreamHandler()
            handler.setFormatter(
                logging.Formatter("%(name)s %(levelname)s %(message)s")
            )
            root.addHandler(handler)
    return _OBS


def disable() -> Observability:
    """Reinstall the null sink (the default state)."""
    global _OBS
    _OBS = Observability.disabled()
    return _OBS
