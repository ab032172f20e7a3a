"""Every second choice stays inside what the query's compilation admitted.

A fragment's first choice comes out of ``InformationIntegrator.compile``
after the exclusion (retry), replica-freshness and viability filters.
Its *second* choices — the Section 4.1 substitute, the hedge backup, the
mid-query migration target — must be drawn from the same admitted set:
a replica the compilation rejected as stale, or a server it excluded
after a failure, may not come back in through the side door.
"""

import pytest

from repro.chaos.runner import REPLICA_ORIGINS
from repro.core import Calibration, QCCConfig
from repro.fed import ConcurrentRuntime, ReplicaManager
from repro.harness import build_replica_federation
from repro.sim import ServerUnavailable
from repro.workload import TEST_SCALE, build_workload

PATHS = ("balancing", "hedge", "reroute")

#: First arrival: past the 1 ms tolerance of a write at t=0.
T0_MS = 10.0


@pytest.fixture(scope="module")
def replica_databases():
    deployment = build_replica_federation(
        scale=TEST_SCALE, seed=7, calibration=Calibration()
    )
    return {
        name: server.database
        for name, server in deployment.servers.items()
    }


def _deployment(databases):
    return build_replica_federation(
        scale=TEST_SCALE,
        seed=7,
        prebuilt_databases=databases,
        qcc_config=QCCConfig(enable_fragment_balancing=True),
    )


def _drive(deployment, path):
    """Submit QT1–QT4 instances down one second-choice *path*:
    sequentially (Section 4.1 substitution on), hedged at 0 ms (every
    fragment fires its backup), or re-routing under a stream of
    calibration-epoch bumps (every multi-batch fragment is interrupted).
    """
    sqls = [q.sql for q in build_workload(instances_per_type=2)]
    integrator = deployment.integrator
    if path == "balancing":
        deployment.clock.advance(T0_MS)
        for sql in sqls:
            integrator.submit(sql)
        return
    runtime = ConcurrentRuntime(
        integrator,
        hedge_after_ms=0.0 if path == "hedge" else None,
        reroute_batch_rows=8 if path == "reroute" else None,
    )
    for index, sql in enumerate(sqls):
        runtime.submit_at(T0_MS + 5.0 * index, sql)
    if path == "reroute":
        for tick in range(400):
            runtime.scheduler.call_at(
                T0_MS + 1.0 * tick, integrator.calibration_epoch.bump
            )
    runtime.run()
    assert not runtime.failures()


def _record_dispatches(deployment, fail_first=False):
    """Log the server every ``execute_option`` reaches; with
    *fail_first*, the very first dispatch raises ``ServerUnavailable``
    before the meta-wrapper (hence QCC) sees it, so only the
    integrator's retry exclusion knows that server is off limits."""
    meta_wrapper = deployment.meta_wrapper
    original = meta_wrapper.execute_option
    reached = []
    failed = []

    def recording(option, t_ms, *args, **kwargs):
        if fail_first and not failed:
            failed.append(option.server)
            raise ServerUnavailable(option.server, t_ms)
        used, execution = original(option, t_ms, *args, **kwargs)
        reached.append(used.server)
        return used, execution

    meta_wrapper.execute_option = recording
    return reached, failed


@pytest.mark.parametrize("path", PATHS)
def test_stale_replicas_are_never_a_second_choice(replica_databases, path):
    deployment = _deployment(replica_databases)
    manager = ReplicaManager(deployment.registry, tolerance_ms=1.0)
    for nickname, origin in REPLICA_ORIGINS.items():
        manager.set_origin(nickname, origin)
    deployment.integrator.replica_manager = manager
    for nickname in REPLICA_ORIGINS:
        manager.note_write(nickname, 0.0)
    assert manager.fresh_servers(["orders"], T0_MS) == {"S1"}

    reached, _ = _record_dispatches(deployment)
    _drive(deployment, path)
    assert reached
    assert set(reached) <= {"S1", "S2"}, (
        f"{path}: dispatched to a replica staler than the tolerance"
    )


@pytest.mark.parametrize("path", ("balancing", "hedge"))
def test_excluded_server_is_not_brought_back_on_retry(
    replica_databases, path
):
    deployment = _deployment(replica_databases)
    reached, failed = _record_dispatches(deployment, fail_first=True)
    sql = build_workload(instances_per_type=1, shuffle=False)[0].sql
    integrator = deployment.integrator
    if path == "balancing":
        result = integrator.submit(sql)
    else:
        runtime = ConcurrentRuntime(integrator, hedge_after_ms=0.0)
        handle = runtime.submit_at(0.0, sql)
        runtime.run()
        result = handle.result
    assert result is not None and result.retries == 1
    assert reached
    assert failed[0] not in reached, (
        f"{path}: the retry dispatched back to excluded {failed[0]}"
    )
