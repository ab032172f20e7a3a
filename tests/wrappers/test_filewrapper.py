"""Unit tests for the file wrapper (cost-withholding source)."""

import pytest

from repro.sim import NetworkLink
from repro.sqlengine import Column, ColumnType, Schema
from repro.wrappers import FileSource, FileWrapper, UNKNOWN_COST


@pytest.fixture()
def source():
    schema = Schema(
        (Column("id", ColumnType.INT), Column("tag", ColumnType.STR))
    )
    rows = [(i, f"tag{i % 3}") for i in range(100)]
    return FileSource(
        name="files1",
        table_name="events",
        schema=schema,
        rows=rows,
        link=NetworkLink(latency_ms=20.0, bandwidth_mbps=10.0),
    )


class TestFileWrapper:
    def test_plans_withhold_cost(self, source):
        wrapper = FileWrapper(source)
        plans = wrapper.plans("SELECT id FROM events WHERE id > 50", 0.0)
        assert len(plans) == 1
        assert plans[0].cost == UNKNOWN_COST
        assert not wrapper.provides_cost

    def test_execute_fetches_and_filters(self, source):
        wrapper = FileWrapper(source)
        plan = wrapper.plans("SELECT id FROM events WHERE id > 97", 0.0)[0].plan
        execution = wrapper.execute(plan, 0.0)
        assert sorted(r[0] for r in execution.rows) == [98, 99]

    def test_execution_time_includes_whole_file_transfer(self, source):
        wrapper = FileWrapper(source)
        plan = wrapper.plans("SELECT id FROM events WHERE id > 97", 0.0)[0].plan
        execution = wrapper.execute(plan, 0.0)
        transfer = source.link.transfer_ms(source.file_bytes, 0.0)
        assert execution.network_ms >= transfer

    def test_probe_ratio_is_none(self, source):
        assert FileWrapper(source).probe_ratio(0.0) is None

    def test_ping_returns_rtt(self, source):
        assert FileWrapper(source).ping(0.0) == pytest.approx(40.0)
