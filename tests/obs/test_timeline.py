"""Federation timeline: recording, querying, CSV/JSON export, and the
Figure-9-style harness sweep."""

from __future__ import annotations

import json

import pytest

import repro.obs as obs
import repro.obs.timeline as timeline_module
from repro.obs.timeline import (
    NULL_TIMELINE,
    NullTimeline,
    Timeline,
    TimelineEvent,
)
from repro.harness import run_timeline
from repro.workload import TEST_SCALE


def _events_of(timeline, kind):
    return [e for e in timeline.events if e.kind == kind]


def _sample(timeline, t_ms, server="S1", factor=1.0, **overrides):
    kwargs = dict(
        live_ratio=factor,
        available=True,
        reliability_factor=1.0,
        pending_samples=1,
    )
    kwargs.update(overrides)
    timeline.sample(t_ms, server, calibration_factor=factor, **kwargs)


class TestTimelineRecorder:
    def test_records_samples_and_events(self):
        timeline = Timeline()
        _sample(timeline, 10.0, "S1", 1.5)
        timeline.event(11.0, "server-down", server="S3", detail="probe")
        assert len(timeline.samples) == 1
        assert timeline.samples[0].calibration_factor == 1.5
        assert timeline.events[0] == TimelineEvent(
            11.0, "server-down", "S3", "probe", None
        )

    def test_capacity_is_bounded_newest_win(self, monkeypatch):
        monkeypatch.setattr(timeline_module, "CAPACITY", 3)
        timeline = Timeline()
        for t in range(5):
            _sample(timeline, float(t))
            timeline.event(float(t), "tick")
        assert [s.t_ms for s in timeline.samples] == [2.0, 3.0, 4.0]
        assert [e.t_ms for e in timeline.events] == [2.0, 3.0, 4.0]

    def test_server_series_filters_and_orders(self):
        timeline = Timeline()
        _sample(timeline, 1.0, "S1", 1.0)
        _sample(timeline, 1.0, "S2", 9.0)
        _sample(timeline, 2.0, "S1", 2.0, available=False)
        assert timeline.server_series("S1") == [(1.0, 1.0), (2.0, 2.0)]
        assert timeline.server_series("S1", field="available") == [
            (1.0, True),
            (2.0, False),
        ]
        assert timeline.servers() == ["S1", "S2"]

    def test_server_series_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            Timeline().server_series("S1", field="nope")


class TestTimelineExport:
    def test_to_dict_and_json(self):
        timeline = Timeline()
        _sample(timeline, 1.0, "S1", 2.0, replica_staleness_ms=5.0)
        timeline.event(2.0, "recalibration", detail="cycle 1", value=3.5)
        payload = json.loads(timeline.to_json())
        assert payload == timeline.to_dict()
        (sample,) = payload["samples"]
        assert sample["server"] == "S1"
        assert sample["replica_staleness_ms"] == 5.0
        (event,) = payload["events"]
        assert event["kind"] == "recalibration"
        assert event["value"] == 3.5

    def test_samples_csv_shape(self):
        timeline = Timeline()
        _sample(timeline, 1.0, "S1", 2.0)
        _sample(timeline, 2.0, "S2", 3.0, available=False, live_ratio=None)
        lines = timeline.samples_csv().splitlines()
        assert lines[0] == (
            "t_ms,server,calibration_factor,live_ratio,available,"
            "reliability_factor,pending_samples,replica_staleness_ms"
        )
        assert lines[1] == "1,S1,2,2,1,1,1,"
        # None renders empty, booleans render 0/1.
        assert lines[2] == "2,S2,3,,0,1,1,"

    def test_events_csv_quotes_unsafe_strings(self):
        timeline = Timeline()
        timeline.event(1.0, "note", detail='a,b "quoted"')
        lines = timeline.events_csv().splitlines()
        assert lines[0] == "t_ms,kind,server,detail,value"
        assert lines[1] == '1,note,,"a,b ""quoted""",'


class TestNullTimeline:
    def test_records_nothing(self):
        _sample(NULL_TIMELINE, 1.0)
        NULL_TIMELINE.event(1.0, "server-down")
        assert len(NULL_TIMELINE.samples) == 0
        assert len(NULL_TIMELINE.events) == 0

    def test_is_a_timeline(self):
        assert isinstance(NULL_TIMELINE, Timeline)
        assert isinstance(NULL_TIMELINE, NullTimeline)
        assert NULL_TIMELINE.samples_csv().splitlines()[0].startswith("t_ms")


class TestRunTimeline:
    @pytest.fixture()
    def sweep(self, sample_databases):
        try:
            yield run_timeline(
                scale=TEST_SCALE, databases=sample_databases
            )
        finally:
            obs.disable()

    def test_phases_cover_the_sweep(self, sweep):
        assert [name for name, _, _ in sweep.phases] == [
            "base",
            "loaded",
            "s3-outage",
            "recovered",
        ]
        for _, start, end in sweep.phases:
            assert end >= start

    def test_captures_calibration_samples_per_server(self, sweep):
        timeline = sweep.timeline
        assert timeline.servers() == ["S1", "S2", "S3"]
        for server in timeline.servers():
            series = timeline.server_series(server)
            # One sample per recalibration (one per phase boundary).
            assert len(series) == len(sweep.phases)
            assert all(factor > 0.0 for _, factor in series)

    def test_captures_availability_transitions(self, sweep):
        timeline = sweep.timeline
        downs = _events_of(timeline, "server-down")
        ups = _events_of(timeline, "server-up")
        assert any(e.server == "S3" for e in downs)
        assert any(e.server == "S3" for e in ups)
        availability = [
            up for _, up in timeline.server_series("S3", field="available")
        ]
        assert False in availability and True in availability
        # Recovery comes after the outage.
        down_t = min(e.t_ms for e in downs if e.server == "S3")
        up_t = max(e.t_ms for e in ups if e.server == "S3")
        assert up_t > down_t

    def test_records_recalibration_events(self, sweep):
        cycles = _events_of(sweep.timeline, "recalibration")
        assert len(cycles) == len(sweep.phases)
        assert all(e.value is not None and e.value > 0 for e in cycles)

    def test_exports(self, sweep):
        csv = sweep.samples_csv()
        assert csv.splitlines()[0].startswith("t_ms,server,")
        assert len(csv.splitlines()) == len(sweep.timeline.samples) + 1
        payload = sweep.to_dict()
        assert payload["experiment"] == "timeline"
        assert [p["name"] for p in payload["phases"]] == [
            "base",
            "loaded",
            "s3-outage",
            "recovered",
        ]
        assert len(payload["samples"]) == len(sweep.timeline.samples)
        rendered = sweep.render()
        assert "Federation timeline" in rendered
        assert "server-down" in rendered
