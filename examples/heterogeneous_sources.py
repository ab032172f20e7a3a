"""Mixing relational and non-relational sources.

The paper's wrappers are heterogeneous: relational sources return plans
*with* estimated costs, while file sources return data locations
*without* cost.  This example federates a relational `customer` table
with an `events` flat file: the meta-wrapper substitutes a default
estimate for the file source, and QCC's observed-vs-estimated ratios
calibrate it after the first access — exactly the "when wrappers do not
provide cost estimation" path of Section 2.

Run:  python examples/heterogeneous_sources.py
"""

from repro.core import QueryCostCalibrator
from repro.fed import InformationIntegrator, NicknameRegistry
from repro.sim import MutableLoad, NetworkLink, RemoteServer
from repro.sqlengine import (
    Column,
    ColumnType,
    Database,
    Schema,
    Serial,
    TableSpec,
    UniformFloat,
    UniformInt,
    populate,
)
from repro.wrappers import FileSource, FileWrapper, MetaWrapper, RelationalWrapper


def main() -> None:
    # Relational source: a customer database behind a DB2-like server.
    db = Database("crm")
    populate(
        db,
        [
            TableSpec(
                "customer",
                (
                    ("custkey", ColumnType.INT, Serial()),
                    ("nation", ColumnType.INT, UniformInt(1, 5)),
                    ("acctbal", ColumnType.FLOAT, UniformFloat(0, 1000)),
                ),
                row_count=200,
            )
        ],
        seed=11,
    )
    crm = RemoteServer(
        "crm", db, load=MutableLoad(0.0),
        link=NetworkLink(latency_ms=4.0, bandwidth_mbps=100.0),
    )

    # Non-relational source: click events in a flat file.
    events_schema = Schema(
        (
            Column("event_id", ColumnType.INT),
            Column("custkey", ColumnType.INT),
            Column("clicks", ColumnType.INT),
        )
    )
    event_rows = [(i, (i % 200) + 1, (i * 7) % 13) for i in range(2000)]
    events = FileSource(
        name="clicklog",
        table_name="events",
        schema=events_schema,
        rows=event_rows,
        link=NetworkLink(latency_ms=25.0, bandwidth_mbps=8.0),
    )

    # Federation wiring.
    registry = NicknameRegistry()
    registry.register(
        "customer", "crm", table_def=db.catalog.lookup("customer")
    )
    registry.register(
        "events",
        "clicklog",
        table_def=events.database.catalog.lookup("events"),
    )
    qcc = QueryCostCalibrator(["crm", "clicklog"])
    meta_wrapper = MetaWrapper(
        {"crm": RelationalWrapper(crm), "clicklog": FileWrapper(events)},
        qcc=qcc,
    )
    integrator = InformationIntegrator(
        registry=registry, meta_wrapper=meta_wrapper
    )

    sql = (
        "SELECT c.nation, COUNT(*) AS events, SUM(e.clicks) AS clicks "
        "FROM customer c JOIN events e ON c.custkey = e.custkey "
        "WHERE c.acctbal > 500 GROUP BY c.nation ORDER BY c.nation"
    )
    print("Federated query over a database and a flat file:")
    print(f"  {sql}\n")

    for attempt in (1, 2, 3):
        result = integrator.submit(sql)
        file_outcome = next(
            o for o in result.fragments.values() if o.option.server == "clicklog"
        )
        print(
            f"run {attempt}: response={result.response_ms:7.1f} ms | "
            f"file fragment estimate={file_outcome.option.calibrated.total:7.1f} "
            f"observed={file_outcome.execution.observed_ms:7.1f}"
        )
        qcc.recalibrate(integrator.clock.now)

    print("\nRows:")
    for row in result.rows:
        print(f"  {row}")

    factor = qcc.factor("clicklog")
    print(
        f"\nQCC's calibration factor for the file source: {factor:.2f}\n"
        "The file wrapper never produced a cost estimate — QCC learned "
        "one from the\ndefault estimate and the observed fetch times, so "
        "the optimizer can now cost\nplans involving the file source "
        "realistically."
    )


if __name__ == "__main__":
    main()
