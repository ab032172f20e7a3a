"""What a finished query leaves behind.

QCC learns what it needs when a fragment settles; after that a finished
query owes its caller the answer and a few numbers.  Its result must not
pin the working set that produced them (the compiled plan trees, the
merge plan over every fragment's rows, the fragments' executions), and
no lifecycle may leave that working set as cyclic garbage either, to
wait for a full collection.
"""

import gc
import types

import pytest

from repro.fed import (
    ConcurrentRuntime,
    FragmentOption,
    GlobalPlan,
    QueryFragment,
)
from repro.harness import build_replica_federation
from repro.obs.profile import disable_profiling, enable_profiling
from repro.sim import RemoteExecution
from repro.sqlengine import (
    MaterializedInput,
    PhysicalPlan,
    QueryBlock,
    SelectStatement,
)
from repro.workload import TEST_SCALE, build_workload
from repro.workload.queries import QUERY_TYPES

#: ``ConcurrentRuntime`` options per drive; ``None`` is sequential submit.
DRIVES = {
    "sequential": None,
    "plain": {},
    "hedge": {"hedge_after_ms": 20.0},
    "reroute": {"reroute_batch_rows": 8},
    "hedge-reroute": {"hedge_after_ms": 20.0, "reroute_batch_rows": 8},
}

#: Working-set types no finished result may reach.
WORKING_SET = (
    PhysicalPlan,
    MaterializedInput,
    QueryFragment,
    FragmentOption,
    GlobalPlan,
    RemoteExecution,
    QueryBlock,
    SelectStatement,
)


@pytest.fixture(scope="module")
def replica_databases():
    deployment = build_replica_federation(scale=TEST_SCALE, seed=7)
    return {name: server.database for name, server in deployment.servers.items()}


def _drive(databases, options):
    """Run QT1–QT4 twice over through one drive on the replica
    federation (where hedges have a backup to fire at); returns
    (deployment, runtime or None, results).  Re-routing drives also see
    a calibration-epoch bump every 40 ms, so fragments migrate."""
    deployment = build_replica_federation(
        scale=TEST_SCALE, seed=7, prebuilt_databases=databases
    )
    sqls = [q.sql for q in build_workload(instances_per_type=2)]
    integrator = deployment.integrator
    if options is None:
        return deployment, None, [integrator.submit(sql) for sql in sqls]
    runtime = ConcurrentRuntime(integrator, **options)
    for index, sql in enumerate(sqls):
        runtime.submit_at(5.0 * index, sql)
    if "reroute_batch_rows" in options:
        for tick in range(0, 400, 40):
            runtime.scheduler.call_at(
                float(tick), integrator.calibration_epoch.bump
            )
    runtime.run()
    assert not runtime.failures()
    results = [h.result for h in runtime.completed()]
    # Every race kind this drive arms did settle some races.
    if "hedge_after_ms" in options:
        assert runtime.hedging.fired > 0
    if "reroute_batch_rows" in options:
        assert sum(result.reroutes for result in results) > 0
    return deployment, runtime, results


@pytest.mark.parametrize("drive", DRIVES)
def test_no_lifecycle_leaves_cyclic_garbage(replica_databases, drive):
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        kept = _drive(replica_databases, DRIVES[drive])
        assert kept[2]
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = [type(o).__name__ for o in gc.garbage]
        assert garbage == [], f"{drive}: {len(garbage)} cyclic objects"
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _reachable(root):
    """Every object reachable from *root* through ``gc.get_referents``,
    stopping at classes, modules and functions (the code, not the data)."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if id(referent) in seen or isinstance(
                referent, (type, types.ModuleType, types.FunctionType)
            ):
                continue
            seen[id(referent)] = referent
            stack.append(referent)
    return seen.values()


@pytest.mark.parametrize("drive", DRIVES)
def test_a_finished_query_keeps_its_answer_not_its_working_set(
    replica_databases, drive
):
    _, _, results = _drive(replica_databases, DRIVES[drive])
    assert results
    for result in results:
        assert result.profile is None and result.trace is None
        reachable = list(_reachable(result))
        pinned = [o for o in reachable if isinstance(o, WORKING_SET)]
        assert pinned == [], f"{drive}: {sorted({type(o).__name__ for o in pinned})}"
        row_lists = [
            o
            for o in reachable
            if isinstance(o, list) and any(isinstance(r, tuple) for r in o)
        ]
        assert row_lists == [result.rows] or (
            row_lists == [] and not result.rows
        )


def test_explain_analyze_pairs_profile_roots_with_fragments(replica_databases):
    """A two-fragment query: each fragment, in dispatch order, gets the
    plan tree that ran it, and the merge plan is the last root."""
    deployment = build_replica_federation(
        scale=TEST_SCALE, seed=7, prebuilt_databases=replica_databases
    )
    sql = QUERY_TYPES[0].instance(0).sql
    enable_profiling()
    try:
        result = deployment.integrator.submit(sql)
    finally:
        disable_profiling()
    paired, merge_plan = result.executed_plans()
    assert [fragment_id for fragment_id, _, _ in paired] == ["QF1", "QF2"]
    assert [f for _, f, _ in paired] == list(result.fragments.values())
    roots = result.profile.roots()
    fragment_roots = [plan for _, _, plan in paired]
    assert [r for r in roots if any(r is p for p in fragment_roots)] == (
        fragment_roots
    )
    for _, fragment, plan in paired:
        assert plan.signature() == fragment.plan_signature
        assert result.profile.stats_for(plan).rows_out == fragment.row_count
    assert merge_plan is roots[-1]
    assert result.profile.stats_for(merge_plan).rows_out == result.row_count
