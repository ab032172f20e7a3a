"""Section 2's "wrapper that provides no cost", end to end: a relational
source and a flat file in one federation, routed through II -> MW -> QCC."""

import pytest

from repro.core import QueryCostCalibrator
from repro.fed import InformationIntegrator, NicknameRegistry
from repro.sim import NetworkLink, RemoteServer
from repro.sqlengine import Column, ColumnType, Database, Schema
from repro.wrappers import (
    DEFAULT_UNKNOWN_ESTIMATE,
    FileSource,
    FileWrapper,
    MetaWrapper,
    RelationalWrapper,
)

CUSTOMER = Schema(
    (Column("custkey", ColumnType.INT), Column("nation", ColumnType.INT))
)
EVENTS = Schema(
    (Column("custkey", ColumnType.INT), Column("clicks", ColumnType.INT))
)
CUSTOMER_ROWS = [(i, i % 5) for i in range(1, 41)]
EVENT_ROWS = [((i % 40) + 1, (i * 7) % 13) for i in range(400)]

SQL = (
    "SELECT c.nation, COUNT(*) AS events, SUM(e.clicks) AS clicks "
    "FROM customer c JOIN events e ON c.custkey = e.custkey "
    "WHERE c.custkey > 10 GROUP BY c.nation ORDER BY c.nation"
)


def _database(name, tables):
    db = Database(name)
    for table, schema, rows in tables:
        db.create_table(table, schema)
        db.load_rows(table, rows)
    db.analyze()
    return db


@pytest.fixture()
def federation():
    crm = _database("crm", [("customer", CUSTOMER, CUSTOMER_ROWS)])
    clicklog = FileSource(
        name="clicklog",
        table_name="events",
        schema=EVENTS,
        rows=EVENT_ROWS,
        link=NetworkLink(latency_ms=25.0, bandwidth_mbps=8.0),
    )
    registry = NicknameRegistry()
    registry.register(
        "customer", "crm", table_def=crm.catalog.lookup("customer")
    )
    registry.register(
        "events",
        "clicklog",
        table_def=clicklog.database.catalog.lookup("events"),
    )
    qcc = QueryCostCalibrator(["crm", "clicklog"])
    meta_wrapper = MetaWrapper(
        {
            "crm": RelationalWrapper(RemoteServer("crm", crm)),
            "clicklog": FileWrapper(clicklog),
        },
        qcc=qcc,
    )
    return InformationIntegrator(registry=registry, meta_wrapper=meta_wrapper)


def _file_outcome(result):
    (outcome,) = (
        o for o in result.fragments.values() if o.option.server == "clicklog"
    )
    return outcome


def test_file_fragment_is_priced_by_default_then_by_what_qcc_learned(
    federation,
):
    qcc = federation.qcc
    first = federation.submit(SQL)
    local = _database(
        "local",
        [
            ("customer", CUSTOMER, CUSTOMER_ROWS),
            ("events", EVENTS, EVENT_ROWS),
        ],
    )
    assert first.rows == local.run(SQL).rows
    assert {o.option.server for o in first.fragments.values()} == {
        "crm",
        "clicklog",
    }

    # The file wrapper withheld a cost: MW put the default in its place.
    cold = _file_outcome(first)
    assert cold.option.estimated == DEFAULT_UNKNOWN_ESTIMATE

    # One execution later QCC prices the file source from what it saw.
    qcc.recalibrate(federation.clock.now)
    learned = qcc.factor("clicklog")
    assert learned == pytest.approx(
        cold.execution.observed_ms / DEFAULT_UNKNOWN_ESTIMATE.total
    )
    assert learned != 1.0
    warm = _file_outcome(federation.submit(SQL))
    assert warm.option.estimated == DEFAULT_UNKNOWN_ESTIMATE
    assert warm.option.calibrated.total == pytest.approx(
        cold.execution.observed_ms
    )
