"""Unit tests for the query patroller."""

import pytest

from repro.fed import QueryPatroller, QueryStatus


class TestPatrollerLifecycle:
    def test_submit_complete(self):
        patroller = QueryPatroller()
        record = patroller.submit("SELECT 1", 100.0, label="QT1")
        assert record.query_id == 1
        assert record.status is QueryStatus.RUNNING
        patroller.complete(record, 150.0)
        assert record.status is QueryStatus.COMPLETED
        assert record.response_time_ms == 50.0

    def test_fail(self):
        patroller = QueryPatroller()
        record = patroller.submit("SELECT 1", 0.0)
        patroller.fail(record, 10.0, "boom", server="S1")
        assert record.status is QueryStatus.FAILED
        assert record.error == "boom"
        assert record.failed_servers == ["S1"]

    def test_note_server_failure_survivable(self):
        patroller = QueryPatroller()
        record = patroller.submit("SELECT 1", 0.0)
        patroller.note_server_failure(record, "S2")
        patroller.complete(record, 5.0)
        assert record.status is QueryStatus.COMPLETED
        assert record.failed_servers == ["S2"]

    def test_ids_increment(self):
        patroller = QueryPatroller()
        first = patroller.submit("a", 0.0)
        second = patroller.submit("b", 0.0)
        assert second.query_id == first.query_id + 1


class TestPatrollerAnalytics:
    def _patroller(self):
        patroller = QueryPatroller()
        for index, label in enumerate(["QT1", "QT1", "QT2"]):
            record = patroller.submit("q", 0.0, label=label)
            patroller.complete(record, float(10 * (index + 1)))
        failed = patroller.submit("q", 0.0, label="QT2")
        patroller.fail(failed, 5.0, "x")
        return patroller

    def test_mean_response(self):
        patroller = self._patroller()
        assert patroller.mean_response_ms() == pytest.approx(20.0)
        assert patroller.mean_response_ms("QT1") == pytest.approx(15.0)

    def test_label_filtering(self):
        patroller = self._patroller()
        assert len(patroller.records("QT2")) == 2
        assert len(patroller.completed("QT2")) == 1

    def test_failure_count(self):
        assert self._patroller().failure_count() == 1
        assert self._patroller().failure_count("QT1") == 0

    def test_mean_of_empty(self):
        assert QueryPatroller().mean_response_ms() == 0.0

    def test_len_and_iter(self):
        patroller = self._patroller()
        assert len(patroller) == 4
        assert len(list(patroller)) == 4
