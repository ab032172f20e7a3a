"""Exporters: Prometheus exposition grammar, Chrome trace-event schema,
and the JSONL sink."""

from __future__ import annotations

import json
import re

from repro.obs import (
    JsonlSink,
    MetricsRegistry,
    chrome_trace_events,
    chrome_trace_json,
    escape_label_value,
    render_prometheus,
)
from repro.obs.trace import QueryTrace

# One exposition line: metric name, optional {label="value",...} block
# (escaped quotes/backslashes allowed inside values), then a number.
_PROM_LINE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="(?:\\.|[^"\\])*")*\})?'
    r' -?[0-9.eE+-]+(\.[0-9]+)?$'
)


def _sample_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("queries_total").inc(3)
    registry.counter("fragments_total", server="S1").inc(2)
    registry.counter("fragments_total", server="S2").inc(1)
    registry.gauge("server_up", server="S1").set(1.0)
    histogram = registry.histogram("response_ms", server="S1")
    for value in (1.0, 2.0, 3.0, 4.0, 100.0):
        histogram.observe(value)
    return registry


class TestPrometheus:
    def test_every_line_matches_the_exposition_grammar(self):
        text = render_prometheus(_sample_registry())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                assert re.match(
                    r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                    r"(counter|gauge|summary)$",
                    line,
                )
            else:
                assert _PROM_LINE.match(line), line

    def test_type_lines_precede_families(self):
        lines = render_prometheus(_sample_registry()).splitlines()
        assert "# TYPE queries_total counter" in lines
        assert "# TYPE server_up gauge" in lines
        assert "# TYPE response_ms summary" in lines
        assert lines.index("# TYPE fragments_total counter") < lines.index(
            'fragments_total{server="S1"} 2'
        )

    def test_histograms_export_quantiles_sum_and_count(self):
        text = render_prometheus(_sample_registry())
        assert 'response_ms{server="S1",quantile="0.5"} 3' in text
        assert 'response_ms{server="S1",quantile="0.99"}' in text
        assert 'response_ms_sum{server="S1"} 110' in text
        assert 'response_ms_count{server="S1"} 5' in text

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("hits", server='S"1').inc()
        registry.counter("hits", server="a\\b").inc()
        registry.counter("hits", server="a\nb").inc()
        text = render_prometheus(registry)
        assert 'hits{server="S\\"1"} 1' in text
        assert 'hits{server="a\\\\b"} 1' in text
        assert 'hits{server="a\\nb"} 1' in text
        for line in text.splitlines():
            if not line.startswith("#"):
                assert _PROM_LINE.match(line), line

    def test_escape_label_value_round_trip_order(self):
        # Backslash first, so escaped quotes don't get double-escaped.
        assert escape_label_value('\\"') == '\\\\\\"'
        assert escape_label_value("plain") == "plain"

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


def _sample_trace() -> QueryTrace:
    trace = QueryTrace(7, "SELECT COUNT(*) FROM customer", 0.0)
    route = trace.begin("route", 0.0)
    trace.end(route, 1.0)
    dispatch = trace.begin("dispatch", 1.0)
    fragment = trace.begin("fragment", 1.0, server="S3")
    trace.end(fragment, 3.0)
    trace.end(dispatch, 3.5)
    trace.finish(4.0)
    return trace


class TestChromeTrace:
    def test_complete_events_have_required_fields(self):
        doc = chrome_trace_events([_sample_trace()])
        assert doc["displayTimeUnit"] == "ms"
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            for field in ("name", "ts", "dur", "pid", "tid", "args"):
                assert field in event

    def test_timestamps_are_microseconds(self):
        doc = chrome_trace_events([_sample_trace()])
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert by_name["fragment"]["ts"] == 1000.0
        assert by_name["fragment"]["dur"] == 2000.0
        assert by_name["route"]["dur"] == 1000.0

    def test_lanes_pid_per_query_tid_per_server(self):
        doc = chrome_trace_events([_sample_trace()])
        by_name = {
            e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert all(e["pid"] == 7 for e in by_name.values())
        assert by_name["route"]["tid"] == 0  # II lane
        assert by_name["fragment"]["tid"] == 1  # first server lane

    def test_metadata_names_process_and_threads(self):
        doc = chrome_trace_events([_sample_trace()])
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {
            (e["name"], e["tid"]): e["args"]["name"] for e in meta
        }
        assert names[("thread_name", 0)] == "II"
        assert names[("thread_name", 1)] == "S3"
        assert names[("process_name", 0)].startswith("query 7:")

    def test_long_sql_is_truncated_in_process_name(self):
        trace = QueryTrace(1, "SELECT " + "x" * 100, 0.0)
        trace.finish(1.0)
        doc = chrome_trace_events([trace])
        (process,) = [
            e for e in doc["traceEvents"] if e["name"] == "process_name"
        ]
        assert process["args"]["name"].endswith("...")
        assert len(process["args"]["name"]) < 100

    def test_json_round_trips(self):
        payload = chrome_trace_json([_sample_trace()])
        doc = json.loads(payload)
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"]


class TestJsonlSink:
    def test_appends_one_record_per_line(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonlSink(str(path))
        sink.emit("custom", {"n": 1})
        registry = _sample_registry()
        sink.emit_metrics(registry, t_ms=42.0)
        assert sink.records_written == 2
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["kind"] for r in records] == ["custom", "metrics"]
        assert records[1]["t_ms"] == 42.0
        assert records[1]["snapshot"]["counters"]["queries_total"] == 3
