"""The plan cache must be behavior-invisible.

Runs the same Figure-9-style load-shifting sweep on two deployments —
plan cache on and off — submitting every query in lockstep, and asserts
both choose byte-identical plans with identical (virtual-time) response
times throughout.  Because compile overhead is charged as a constant in
virtual time, caching changes only wall-clock cost, never behavior.
"""

import pytest

from repro.harness import build_federation
from repro.workload import PHASES, TEST_SCALE, build_workload


@pytest.fixture()
def paired_deployments(sample_databases):
    cached = build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    )
    uncached = build_federation(
        scale=TEST_SCALE,
        prebuilt_databases=sample_databases,
        enable_plan_cache=False,
    )
    return cached, uncached


def test_cached_and_uncached_runs_choose_identical_plans(
    paired_deployments,
):
    cached, uncached = paired_deployments
    workload = build_workload(instances_per_type=2, seed=7)
    # Idle, S3-loaded, all-loaded: the shifts that move QT2/QT3 routing.
    phases = (PHASES[0], PHASES[1], PHASES[7])

    for phase in phases:
        for deployment in (cached, uncached):
            deployment.set_load(phase.levels())
            deployment.clock.advance(3_000.0)
            deployment.qcc.probe_servers(deployment.clock.now)
        for repeat in range(2):  # second pass exercises cache hits
            for instance in workload:
                r_cached = cached.integrator.submit(
                    instance.sql, label=instance.label
                )
                r_uncached = uncached.integrator.submit(
                    instance.sql, label=instance.label
                )
                assert (
                    r_cached.describe() == r_uncached.describe()
                ), (phase.name, repeat, instance.label)
                assert r_cached.response_ms == pytest.approx(
                    r_uncached.response_ms
                )
                assert r_cached.row_count == r_uncached.row_count
        for deployment in (cached, uncached):
            deployment.qcc.recalibrate(deployment.clock.now)

    stats = cached.integrator.plan_cache.stats()
    assert stats["hits"] > 0, stats
    assert uncached.integrator.plan_cache is None
    # The two runs stayed in lockstep to the end.
    assert cached.clock.now == pytest.approx(uncached.clock.now)
