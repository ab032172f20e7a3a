"""Everything-on stability test.

All features active simultaneously — calibration, reliability, both
load balancers, induced load, update storms, transient errors, an
outage, and phase shifts — and the system must keep answering queries
correctly.
"""

from dataclasses import replace

import pytest

from repro.core import LoadBalanceConfig, QCCConfig
from repro.harness import DEFAULT_SERVER_SPECS, build_federation
from repro.sim import InducedLoad, OutageSchedule
from repro.sqlengine import rows_close_unordered
from repro.workload import PHASES, TEST_SCALE, build_workload


@pytest.mark.parametrize("seed", [7, 11])
def test_everything_on_everything_breaks_nothing(seed):
    config = QCCConfig(
        enable_fragment_balancing=True,
        enable_global_balancing=True,
        enable_reliability=True,
        load_balance=LoadBalanceConfig(band=0.3, workload_threshold=0.0),
        drift_trigger_ratio=2.0,
    )
    # Its own databases, not the shared sample ones: the storm below
    # writes to S1's supplier.
    deployment = build_federation(
        scale=TEST_SCALE,
        seed=seed,
        qcc_config=config,
        specs=[
            replace(spec, error_rate=0.15 if spec.name == "S2" else 0.0)
            for spec in DEFAULT_SERVER_SPECS
        ],
    )
    # Traffic-sensitive load on S1 plus a storm hitting it.
    s1 = deployment.servers["S1"]
    s1.load = InducedLoad(gain=0.003, decay_ms=10_000.0, base=deployment.loads["S1"])
    # The storm hits a table the workload never reads: its load effects
    # are felt, but replica equivalence of the workload tables survives.
    def storm(t_ms):
        for burst in range(1, 5):
            low = burst * seed
            s1.execute_dml(
                "UPDATE supplier SET rating = rating + 1 "
                f"WHERE suppkey >= {low} AND suppkey < {low + 3}",
                t_ms,
            )

    # S3 takes an outage partway through.
    deployment.servers["S3"].availability = OutageSchedule(
        [(2_000.0, 20_000.0)]
    )

    workload = build_workload(instances_per_type=2, seed=seed)
    reference = {
        instance.sql: deployment.servers["S2"].database.run(instance.sql).rows
        for instance in workload
    }

    completed = 0
    for phase in (PHASES[0], PHASES[1], PHASES[4]):
        deployment.set_load(
            {
                name: phase.level_for(name, 0.7)
                for name in deployment.server_names()
            }
        )
        storm(deployment.clock.now)
        for instance in workload:
            try:
                result = deployment.integrator.submit(
                    instance.sql, label=instance.label
                )
            except Exception as exc:  # noqa: BLE001 - inspected below
                from repro.fed import FederationError
                from repro.sim import ServerUnavailable

                assert isinstance(exc, (FederationError, ServerUnavailable))
                continue
            completed += 1
            assert rows_close_unordered(
                result.rows, reference[instance.sql]
            ), instance.query_type
        deployment.clock.advance(3_000.0)

    # The system must have made real progress despite the chaos.
    assert completed >= len(workload) * 2
    status = deployment.qcc.status()
    assert status["execution_records"] > 0
    assert status["recalibrations"] >= 0
    # And the patroller's books balance.
    patroller = deployment.integrator.patroller
    assert len(patroller) == completed + patroller.failure_count()
