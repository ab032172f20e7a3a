"""Telemetry exporters: Prometheus text, Chrome trace events, JSONL.

Three output formats turn the in-process observability state into the
artifacts a serving stack actually ships:

* :func:`render_prometheus` — the Prometheus text exposition format for
  a :class:`~repro.obs.metrics.MetricsRegistry`.  Histograms export as
  summaries (``_count``/``_sum`` plus ``quantile``-labelled series) and
  label values are escaped per the exposition grammar.
* :func:`chrome_trace_events` — Chrome trace-event JSON (loadable in
  Perfetto / ``chrome://tracing``) from :class:`~repro.obs.trace.QueryTrace`
  span trees, with one pid per query and one tid lane per server plus an
  ``II`` lane for integrator-side spans.
* :class:`JsonlSink` — an append-only JSON-lines telemetry file for
  long-running federations (one self-describing record per line).
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

from .metrics import MetricKey, MetricsRegistry
from .trace import QueryTrace, Span

# -- Prometheus text exposition ---------------------------------------------

#: Quantiles exported for every histogram, matching the in-process
#: p50/p95/p99 summaries.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(
    labels: Sequence[tuple], extra: Sequence[tuple] = ()
) -> str:
    pairs = [
        f'{k}="{escape_label_value(str(v))}"' for k, v in (*labels, *extra)
    ]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_value(value: float) -> str:
    return f"{value:g}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    One ``# TYPE`` line per metric family; counters and gauges export
    their value directly, histograms export as summaries.
    """
    lines: List[str] = []

    def families(
        items: Iterable[tuple],
    ) -> Dict[str, List[tuple]]:
        grouped: Dict[str, List[tuple]] = defaultdict(list)
        for key, instrument in items:
            grouped[key[0]].append((key, instrument))
        return grouped

    for name, members in sorted(families(registry.counter_items()).items()):
        lines.append(f"# TYPE {name} counter")
        for (_, labels), counter in members:
            lines.append(
                f"{name}{_prom_labels(labels)} {_format_value(counter.value)}"
            )
    for name, members in sorted(families(registry.gauge_items()).items()):
        lines.append(f"# TYPE {name} gauge")
        for (_, labels), gauge in members:
            lines.append(
                f"{name}{_prom_labels(labels)} {_format_value(gauge.value)}"
            )
    for name, members in sorted(families(registry.histogram_items()).items()):
        lines.append(f"# TYPE {name} summary")
        for (_, labels), histogram in members:
            values = histogram.quantiles(SUMMARY_QUANTILES)
            for q, value in zip(SUMMARY_QUANTILES, values):
                quantile_labels = _prom_labels(
                    labels, extra=(("quantile", f"{q:g}"),)
                )
                lines.append(
                    f"{name}{quantile_labels} {_format_value(value)}"
                )
            plain = _prom_labels(labels)
            lines.append(f"{name}_sum{plain} {_format_value(histogram.total)}")
            lines.append(
                f"{name}_count{plain} {_format_value(histogram.count)}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


# -- Chrome trace events -----------------------------------------------------

#: tid of the integrator-side lane in every query's process.
II_LANE = 0
II_LANE_NAME = "II"


def _span_lane(span: Span, lanes: Dict[str, int]) -> int:
    server = span.attributes.get("server")
    if server is None:
        return II_LANE
    lane = lanes.get(str(server))
    if lane is None:
        lane = lanes[str(server)] = len(lanes) + 1
    return lane


def _span_events(
    span: Span,
    pid: int,
    lanes: Dict[str, int],
    events: List[Dict[str, object]],
) -> None:
    start = span.start_ms
    end = span.end_ms if span.end_ms is not None else start
    cancelled = bool(span.attributes.get("cancelled"))
    event: Dict[str, object] = {
        "name": (
            f"{span.name} (cancelled)" if cancelled else span.name
        ),
        "ph": "X",
        "ts": start * 1e3,  # trace events are in microseconds
        "dur": max(end - start, 0.0) * 1e3,
        "pid": pid,
        "tid": _span_lane(span, lanes),
        "args": {k: _jsonable(v) for k, v in span.attributes.items()},
    }
    if cancelled:
        # Reserved colour name: hedge losers render grey in Perfetto.
        event["cname"] = "grey"
    events.append(event)
    for child in span.children:
        _span_events(child, pid, lanes, events)


def _jsonable(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def chrome_trace_events(
    traces: Sequence[QueryTrace],
) -> Dict[str, object]:
    """Trace-event JSON for *traces*: one pid per query, one tid per lane.

    The result is a complete trace file (``{"traceEvents": [...]}``);
    dump it with ``json.dumps`` and open it in Perfetto.
    """
    events: List[Dict[str, object]] = []
    for trace in traces:
        pid = trace.query_id
        lanes: Dict[str, int] = {}
        for span in trace.spans:
            _span_events(span, pid, lanes, events)
        sql = trace.sql if len(trace.sql) <= 80 else trace.sql[:77] + "..."
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": II_LANE,
                "args": {"name": f"query {pid}: {sql}"},
            }
        )
        for lane_name, tid in (
            (II_LANE_NAME, II_LANE),
            *sorted(lanes.items(), key=lambda item: item[1]),
        ):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": lane_name},
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    traces: Sequence[QueryTrace], indent: Optional[int] = None
) -> str:
    return json.dumps(chrome_trace_events(traces), indent=indent)


# -- JSONL telemetry sink ----------------------------------------------------


class JsonlSink:
    """Append-only JSON-lines telemetry writer.

    Every record is one self-describing line (``kind`` plus payload), so
    a long-running federation can stream metrics snapshots, finished
    traces and timeline events into a single greppable file.
    """

    def __init__(self, path: str):
        self.path = path
        self.records_written = 0

    def emit(self, kind: str, payload: Mapping[str, object]) -> None:
        record = {"kind": kind, **payload}
        with open(self.path, "a") as handle:
            handle.write(json.dumps(record, default=str) + "\n")
        self.records_written += 1

    def emit_metrics(
        self, registry: MetricsRegistry, t_ms: Optional[float] = None
    ) -> None:
        payload: Dict[str, object] = {"snapshot": registry.snapshot()}
        if t_ms is not None:
            payload["t_ms"] = t_ms
        self.emit("metrics", payload)
