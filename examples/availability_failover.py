"""Availability-aware routing (Section 3.3).

The fastest server, S3, suffers an outage while a workload is running.
QCC mines the error from the execution log, immediately adjusts S3's
cost to infinity (no further fragments are routed there), and daemon
probes readmit S3 once the outage ends.  Queries submitted during the
outage succeed via failover.

Run:  python examples/availability_failover.py
"""

from repro.baselines import qcc_deployment
from repro.harness import ascii_table
from repro.sim import OutageSchedule
from repro.workload import QT1, TEST_SCALE

OUTAGE = (5_000.0, 40_000.0)


def main() -> None:
    deployment = qcc_deployment(scale=TEST_SCALE)
    deployment.servers["S3"].availability = OutageSchedule([OUTAGE])
    integrator = deployment.integrator
    sql = QT1.instance(0).sql

    rows = []

    def submit(note):
        result = integrator.submit(sql, label="QT1")
        rows.append(
            [
                f"{deployment.clock.now:.0f}",
                note,
                "/".join(sorted(result.servers)),
                f"{result.response_ms:.1f}",
                result.retries,
                str(deployment.qcc.availability.down_servers()),
            ]
        )

    submit("before outage (S3 healthy)")

    # Jump into the outage window.
    deployment.clock.advance_to(10_000.0)
    submit("during outage (failover)")
    submit("during outage (S3 already marked down)")

    # Jump past the outage; the next daemon probe readmits S3.
    deployment.clock.advance_to(45_000.0)
    deployment.qcc.probe_servers(deployment.clock.now)
    submit("after outage (probe readmitted S3)")

    print(
        ascii_table(
            ["t (ms)", "Event", "Routed to", "Response (ms)", "Retries", "Down list"],
            rows,
            title="Failover timeline",
        )
    )

    patroller = integrator.patroller
    print(
        f"\nQueries: {len(patroller)}  completed: "
        f"{len(patroller.completed())}  failed: {patroller.failure_count()}"
    )
    print(
        "Every query completed: the outage was detected the moment a "
        "request to S3\nfailed, QCC marked S3 down and routed around it "
        "(slower, but alive) until a\ndaemon probe saw it healthy again."
    )


if __name__ == "__main__":
    main()
