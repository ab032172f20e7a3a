"""What ``bench_hedge.py`` and ``bench_reroute.py`` share: one seeded
open-loop drive of the replica federation (S1/R1, S2/R2) under a fault
on S1, with any combination of the two second-leg knobs, and the
latency profile of the result."""

from __future__ import annotations

from repro.core import Calibration
from repro.fed import ConcurrentRuntime
from repro.harness import build_replica_federation
from repro.workload import TEST_SCALE, build_workload

SEED = 13

#: Open-loop submission interval (virtual ms) — ~12.5 q/s leaves the
#: queues headroom, so a fault creates a *tail*, not saturation.
#: (Hedging under saturation only feeds the congestion; the adaptive
#: fanout cap exists for exactly that regime.)
SPACING_MS = 80.0

#: A run with a second leg must bring its p99 in at or below this
#: fraction of the plain run's.
P99_IMPROVEMENT = 0.75


def replica_databases():
    deployment = build_replica_federation(
        scale=TEST_SCALE, seed=SEED, calibration=Calibration()
    )
    return {
        name: server.database
        for name, server in deployment.servers.items()
    }


def drive(
    databases,
    queries,
    fault,
    hedge_after_ms=None,
    reroute_batch_rows=None,
    bumps=(),
):
    """Run *queries* instances through a fresh deployment after
    ``fault(deployment)`` installed the fault schedules; *bumps* are
    calibration-epoch bump instants.  Returns per-index ``(status,
    rows)`` outcomes, the completed latencies and the runtime."""
    deployment = build_replica_federation(
        scale=TEST_SCALE,
        seed=SEED,
        prebuilt_databases=databases,
    )
    fault(deployment)
    runtime = ConcurrentRuntime(
        deployment.integrator,
        hedge_after_ms=hedge_after_ms,
        reroute_batch_rows=reroute_batch_rows,
    )
    epoch = deployment.integrator.calibration_epoch
    for t_ms in bumps:
        runtime.scheduler.call_at(t_ms, epoch.bump)
    instances = build_workload(instances_per_type=10)
    handles = [
        runtime.submit_at(
            index * SPACING_MS,
            instances[index % len(instances)].sql,
            klass="gold",
        )
        for index in range(queries)
    ]
    runtime.run()

    outcomes = []
    latencies = []
    for handle in handles:
        result = handle.result
        status = "ok" if result is not None else "failed"
        rows = tuple(result.rows) if result is not None else ()
        outcomes.append((status, rows))
        if result is not None:
            latencies.append(result.response_ms)
    return outcomes, latencies, runtime


def hedge_stats(runtime):
    # The raw counters, not ``policy.stats()``: bench-hedge.json's
    # ``policy`` entry is byte-compared across commits and has always
    # carried integer counts and the unrounded waste.
    policy = runtime.hedging
    return {
        "fired": policy.fired if policy else 0,
        "suppressed": policy.suppressed if policy else 0,
        "backup_wins": policy.backup_wins if policy else 0,
        "primary_wins": policy.primary_wins if policy else 0,
        "wasted_ms": policy.wasted_ms if policy else 0.0,
    }


def reroute_stats(runtime):
    policy = runtime.rerouting
    stats = policy.stats() if policy else {
        "fired": 0.0, "declined": 0.0,
        "migrated_rows": 0.0, "wasted_ms": 0.0,
    }
    stats["query_reroutes"] = float(
        sum(
            handle.result.reroutes
            for handle in runtime.handles
            if handle.result is not None
        )
    )
    return stats


def _quantile(ordered, q):
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def latency_profile(latencies):
    ordered = sorted(latencies)
    return {
        "p50_ms": _quantile(ordered, 0.50),
        "p95_ms": _quantile(ordered, 0.95),
        "p99_ms": _quantile(ordered, 0.99),
        "mean_ms": sum(ordered) / len(ordered),
        "queries": len(ordered),
    }


def combined_summary(run, rerun, plain_outcomes, plain_profile, knobs):
    """Gate a drive with *both* knobs on — zero oracle drift against the
    plain run, rerun determinism, the p99 cut — and return its artifact
    entry (no wall clock: bench-reroute.json is ``cmp``-ed)."""
    outcomes, latencies, runtime = run
    rerun_outcomes, rerun_latencies, rerun_runtime = rerun
    summary = dict(
        knobs,
        **latency_profile(latencies),
        hedge=hedge_stats(runtime),
        reroute=reroute_stats(runtime),
    )
    print(
        f" combined: p50={summary['p50_ms']:.1f}ms "
        f"p95={summary['p95_ms']:.1f}ms p99={summary['p99_ms']:.1f}ms "
        f"(hedges fired={summary['hedge']['fired']}, "
        f"migrations fired={summary['reroute']['fired']:g})"
    )
    # Both kinds of leg must actually launch in the one run.
    assert summary["hedge"]["fired"] > 0 and summary["reroute"]["fired"] > 0
    assert outcomes == plain_outcomes
    assert (rerun_outcomes, rerun_latencies) == (outcomes, latencies)
    assert hedge_stats(rerun_runtime) == summary["hedge"]
    assert reroute_stats(rerun_runtime) == summary["reroute"]
    assert summary["p99_ms"] <= P99_IMPROVEMENT * plain_profile["p99_ms"]
    return summary
