"""Every plan a chaos sweep runs gives equal rows and meters on both engines.

A scenario's response times, retries and routing are deterministic
functions of each execution's rows and ``WorkMeter``: the meter becomes
processing time under load, the rows become bytes on the link, and QCC
learns from both.  So holding the rows, ``cpu_ms``, ``io_ms`` and
``tuples_out`` of every fragment plan a server ran
(``RemoteServer.execute_plan``) and every II merge plan equal across the
row and columnar engines checks, plan by plan, what rerunning whole
scenarios on the row engine checked.  The sweep covers both topologies,
sequential and concurrent arrivals, with and without a hedge timer and
mid-query re-routing.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.fed.integrator as integrator_module
from repro.chaos import generate_scenario, run_checkers, run_scenario, violations
from repro.sim import RemoteServer
from repro.sqlengine import execute_plan

#: Scenarios 0-11 of seed 42: both topologies, both arrival modes and
#: every fault kind.
SCENARIOS = [(42, index) for index in range(12)]

#: The sweep's two settings of the second-leg options (concurrent
#: scenarios only, as ``repro chaos --hedge-after 20 --reroute-batch 8``).
SECOND_LEGS = ({}, {"hedge_after_ms": 20.0, "reroute_batch_rows": 8})


@pytest.fixture(scope="module")
def executed():
    """(fragment runs as (plan, database), merge runs as (plan, storage),
    dispatches per second-leg setting)."""
    fragments = {}
    merges = []
    dispatches = [0] * len(SECOND_LEGS)
    run_fragment = RemoteServer.execute_plan
    run_merge = integrator_module.execute_plan

    def recording_fragment(server, plan, t_ms):
        execution = run_fragment(server, plan, t_ms)
        fragments[id(plan), id(server.database)] = (plan, server.database)
        return execution

    def recording_merge(plan, storage):
        merges.append((plan, storage))
        return run_merge(plan, storage)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RemoteServer, "execute_plan", recording_fragment)
        patch.setattr(integrator_module, "execute_plan", recording_merge)
        for setting, second_legs in enumerate(SECOND_LEGS):
            for seed, index in SCENARIOS:
                spec = generate_scenario(seed, index)
                if spec.arrival is not None:
                    spec = dataclasses.replace(spec, **second_legs)
                run = run_scenario(spec, with_oracle=False)
                assert violations(run_checkers(run, ["sqlite-answers"])) == []
                dispatches[setting] += len(run.dispatches)
    return list(fragments.values()), merges, dispatches


def _assert_engines_agree(plan, storage):
    row, columnar = (
        execute_plan(plan, storage, engine=engine)
        for engine in ("row", "columnar")
    )
    assert columnar.rows == row.rows, plan.explain()
    assert (
        columnar.meter.cpu_ms,
        columnar.meter.io_ms,
        columnar.meter.tuples_out,
    ) == (row.meter.cpu_ms, row.meter.io_ms, row.meter.tuples_out), plan.explain()


def test_the_sweep_covers_both_topologies_and_second_legs(executed):
    fragments, merges, (plain, with_second_legs) = executed
    servers = {database.name for _, database in fragments}
    assert {"S3", "R1", "R2"} <= servers
    assert merges
    # Hedge backups launched: more dispatches for the same queries.
    assert with_second_legs > plain


def test_fragment_plans_agree(executed):
    fragments, _, _ = executed
    for plan, database in fragments:
        _assert_engines_agree(plan, database.storage)


def test_merge_plans_agree(executed):
    _, merges, _ = executed
    for plan, storage in merges:
        _assert_engines_agree(plan, storage)
