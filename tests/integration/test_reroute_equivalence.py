"""Differential migration harness: re-routing is byte-invisible.

The tentpole claim of the re-routing subsystem is *exactness*: a query
whose scan fragment migrates mid-flight — at any batch boundary, under
any batch size, one row per execution batch or the default — must return rows
byte-identical to the fault-free run, and the calibrator must receive
bit-identical feedback (the primary's full demonstrated demand, never a
migration-inflated figure).

The sweep here is exhaustive over interrupt instants, not sampled: for
every (execution granularity, batch size) cell it derives the fragments'
batch boundaries from a no-reroute oracle run, then fires a
calibration-epoch bump at *every* batch-boundary instant and at every
mid-batch midpoint, and holds each perturbed run to the oracle's answer.  Seeds and query
instances come from ``derive_rng`` so the matrix is reproducible from
the module constants alone.
"""

import pytest

from repro.fed import ReroutePolicy
from repro.fed.concurrent import ConcurrentRuntime
from repro.harness.deployment import (
    REPLICA_PLACEMENT,
    REPLICA_SERVER_SPECS,
    build_replica_federation,
)
from repro.sim.rng import derive_rng
from repro.sqlengine import DEFAULT_BATCH_SIZE
from repro.workload import TEST_SCALE, queries as Q
from tests.batching import batch_size
from tests.datasets import server_databases
from tests.executions import noted_executions

#: Data seed shared with the chaos runner so the replica dataset is the
#: battle-tested one.
DATA_SEED = 7

#: Sweep seed: picks the query instances via derive_rng.
SWEEP_SEED = 2025

#: Rows per execution batch, by name: ``row`` runs every operator one
#: row at a time, ``columnar`` at the default batch size.  A migration
#: must be byte-invisible at both, and both must see the same run.
GRANULARITIES = {"row": 1, "columnar": DEFAULT_BATCH_SIZE}
#: Rows per migration checkpoint (``reroute_batch_rows``).
BATCH_SIZES = (1, 2, 7, 1024)

#: Compile overhead of a single query submitted at t=0: fragments hit
#: the wire at this instant, so batch boundaries sit at
#: ``DISPATCH_MS + cumsum(batch demands)``.
DISPATCH_MS = 2.0


def _query_sql(rng_component):
    """One QT2 and one QT4 instance, chosen reproducibly."""
    rng = derive_rng(SWEEP_SEED, "reroute", rng_component)
    template = Q.QT2 if rng_component == "qt2" else Q.QT4
    return template.instance(rng.randrange(10), DATA_SEED).sql


@pytest.fixture(scope="module")
def replica_databases():
    """The replica topology's databases."""
    return server_databases(REPLICA_SERVER_SPECS, REPLICA_PLACEMENT, seed=DATA_SEED)


def _run_query(
    databases,
    granularity,
    sql,
    reroute_batch_rows=None,
    bump_at=(),
    hedge_after_ms=None,
):
    """One fresh deployment over *databases*, one query executed at
    *granularity*, optional epoch bumps.  Returns ``(result, noted
    executions)``."""
    deployment = build_replica_federation(
        scale=TEST_SCALE,
        seed=DATA_SEED,
        prebuilt_databases=databases,
    )
    noted = noted_executions(deployment.meta_wrapper)
    runtime = ConcurrentRuntime(
        deployment.integrator,
        reroute_batch_rows=reroute_batch_rows,
        hedge_after_ms=hedge_after_ms,
    )
    handle = runtime.submit_at(0.0, sql)
    epoch = deployment.integrator.calibration_epoch
    for t_ms in bump_at:
        runtime.scheduler.call_at(t_ms, lambda: epoch.bump())
    with batch_size(GRANULARITIES[granularity]):
        runtime.run()
    assert handle.error is None, handle.error
    assert handle.result is not None
    return handle.result, noted


def _log_key(log):
    """The calibrator-visible feedback, as a comparable value."""
    return [
        (
            entry.t_ms,
            entry.fragment_id,
            entry.fragment_signature,
            entry.server,
            entry.plan_signature,
            entry.estimated_total,
            entry.observed_ms,
        )
        for entry in log
    ]


def _boundaries(policy, fragment):
    """The cumulative batch boundaries *policy* checkpoints *fragment*
    at: k folded copies of one batch's share, then the whole demand."""
    total, rows = fragment.observed_ms, fragment.row_count
    if not policy.migratable(fragment):
        return [total]
    share = total * (policy.batch_rows / rows)
    boundaries, acc = [], 0.0
    for kept in range(1, -(-rows // policy.batch_rows)):
        acc += share
        # The policy's own fold: consuming boundary k keeps k batches.
        assert policy.checkpoint(fragment, acc).batches_kept == kept
        boundaries.append(acc)
    assert policy.checkpoint(fragment, total) is None
    return boundaries + [total]


def _bump_instants(result, batch_rows):
    """Every batch-boundary instant plus every mid-batch midpoint.

    Boundaries are derived from the oracle run's per-fragment demands —
    the fold the migration policy itself checkpoints at — so a bump at
    ``boundaries[i]`` lands on the checkpoint after batch ``i`` and a
    midpoint lands strictly inside batch ``i+1``.
    """
    policy = ReroutePolicy(batch_rows)
    instants = set()
    for fragment in result.fragments.values():
        # A fragment record carries the row count and observed demand
        # the batches are cut from.
        previous = DISPATCH_MS
        for boundary in _boundaries(policy, fragment):
            acc = DISPATCH_MS + boundary
            instants.add(acc)
            instants.add((previous + acc) / 2.0)
            previous = acc
    return sorted(instants)


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("component", ("qt2", "qt4"))
def test_untriggered_rerouting_is_bit_identical(
    replica_databases, granularity, component
):
    """Enabled-but-idle re-routing must not perturb a single byte."""
    sql = _query_sql(component)
    oracle, oracle_log = _run_query(replica_databases, granularity, sql)
    armed, armed_log = _run_query(
        replica_databases, granularity, sql, reroute_batch_rows=4
    )
    assert armed.reroutes == 0
    assert list(armed.rows) == list(oracle.rows)
    assert armed.response_ms == oracle.response_ms
    assert _log_key(armed_log) == _log_key(oracle_log)


@pytest.mark.parametrize("granularity", GRANULARITIES)
@pytest.mark.parametrize("batch_rows", BATCH_SIZES)
def test_migration_sweep_matches_oracle(
    replica_databases, granularity, batch_rows
):
    """Bump the epoch at every boundary and midpoint; answers never move.

    ``rows`` are compared as ordered lists — the merge is deterministic,
    so even row *order* must survive a migration.  The runtime log is
    compared bit-for-bit: QCC must see the primary's raw demand whether
    or not the tail was re-shipped to a replica.
    """
    sql = _query_sql("qt2")
    oracle, oracle_log = _run_query(replica_databases, granularity, sql)
    oracle_rows = list(oracle.rows)
    oracle_key = _log_key(oracle_log)
    multi_batch = any(
        ReroutePolicy(batch_rows).migratable(fragment)
        for fragment in oracle.fragments.values()
    )

    migrations = 0
    for t_bump in _bump_instants(oracle, batch_rows):
        perturbed, log = _run_query(
            replica_databases,
            granularity,
            sql,
            reroute_batch_rows=batch_rows,
            bump_at=(t_bump,),
        )
        migrations += perturbed.reroutes
        assert list(perturbed.rows) == oracle_rows, (
            f"rows drifted ({granularity}, batch={batch_rows}, "
            f"bump={t_bump})"
        )
        assert _log_key(log) == oracle_key, (
            f"calibrator feedback drifted ({granularity}, "
            f"batch={batch_rows}, bump={t_bump})"
        )
    if multi_batch:
        # The sweep must actually exercise the mechanism, not vacuously
        # pass because every interrupt declined.
        assert migrations > 0
    else:
        # A single-batch fragment has no boundary to migrate at; the
        # policy must never arm (batch_rows=1024 at test scale).
        assert migrations == 0


@pytest.mark.parametrize("hedge_after_ms", (None, 1e9))
def test_unreachable_hedge_timer_beside_rerouting_changes_nothing(
    replica_databases, hedge_after_ms
):
    """At every interrupt instant, re-routing with a hedge timer armed
    beside it that never comes due (``1e9``) is bit-identical to
    re-routing alone (``None``: the rerun itself is)."""
    sql = _query_sql("qt2")
    oracle, _ = _run_query(replica_databases, "columnar", sql)

    def observe(t_bump, **knobs):
        result, log = _run_query(
            replica_databases,
            "columnar",
            sql,
            reroute_batch_rows=4,
            bump_at=(t_bump,),
            **knobs,
        )
        return (
            list(result.rows),
            result.response_ms,
            result.remote_ms,
            result.reroutes,
            _log_key(log),
        )

    migrations = 0
    for t_bump in _bump_instants(oracle, 4):
        alone = observe(t_bump)
        assert observe(t_bump, hedge_after_ms=hedge_after_ms) == alone
        migrations += alone[3]
    assert migrations > 0


@pytest.mark.parametrize("component", ("qt2", "qt4"))
def test_engines_agree_under_migration(replica_databases, component):
    """The same mid-scan bump produces identical behaviour one row per
    execution batch and at the default batch size."""
    sql = _query_sql(component)
    oracle, _ = _run_query(replica_databases, "row", sql)
    instants = _bump_instants(oracle, 4)
    t_bump = instants[len(instants) // 2]
    results = {}
    for granularity in GRANULARITIES:
        perturbed, log = _run_query(
            replica_databases,
            granularity,
            sql,
            reroute_batch_rows=4,
            bump_at=(t_bump,),
        )
        results[granularity] = (
            list(perturbed.rows),
            perturbed.response_ms,
            perturbed.reroutes,
            _log_key(log),
        )
    assert results["row"] == results["columnar"]


def test_double_bump_migrates_at_most_once(replica_databases):
    """The policy bound: one migration per fragment, ever."""
    sql = _query_sql("qt2")
    oracle, _ = _run_query(replica_databases, "row", sql)
    instants = _bump_instants(oracle, 2)
    early, late = instants[1], instants[-2]
    perturbed, _ = _run_query(
        replica_databases,
        "row",
        sql,
        reroute_batch_rows=2,
        bump_at=(early, late),
    )
    assert list(perturbed.rows) == list(oracle.rows)
    assert perturbed.reroutes <= len(perturbed.fragments)


def test_policy_rejects_a_batch_below_one_row():
    """``--reroute-batch`` is outside input: zero rows per checkpoint is
    refused, not looped on."""
    with pytest.raises(ValueError):
        ReroutePolicy(0)
