"""Hedged dispatch under a transient latency spike: the tail-cut gate.

Two identically seeded replica-topology deployments (S1/R1, S2/R2)
sharing one prebuilt dataset run the same open-loop query stream while
S1's network link suffers two brief congestion spikes.  One run hedges
(static 30ms delay, per-signature p95 takeover), the other doesn't.

Gates, all on virtual time and fully seeded:

* **Zero oracle drift** — per-index statuses and result rows of the
  hedged and unhedged runs are identical.  Hedging may only move
  latency, never answers.
* **Tail cut** — the hedged run's p99 response time beats the unhedged
  run's by at least ``P99_IMPROVEMENT`` while the median stays put;
  hedges must actually fire and backups must actually win.
* **Determinism** — two hedged invocations produce bit-identical
  latencies and policy counters.

A third, ``combined`` drive turns mid-query re-routing on beside
hedging under the same spikes and is held to the same three gates.

CI uploads the summary as ``bench-hedge.json``.
"""

from __future__ import annotations

import json
import os
import time

from repro.sim import StepSchedule

from tail_drive import (
    P99_IMPROVEMENT,
    combined_summary,
    drive,
    hedge_stats,
    latency_profile,
    replica_databases,
)

#: Queries in the stream; CI can shrink via the environment.
QUERIES = int(os.environ.get("REPRO_BENCH_HEDGE_QUERIES", "150"))

#: Optional path for a standalone JSON artifact of the results.
ARTIFACT = os.environ.get("REPRO_BENCH_HEDGE_JSON", "")

#: Two brief congestion spikes on S1's link (level 0.95 ≈ 8.6x
#: latency): long enough to stall queries dispatched into them, short
#: enough that QCC's calibration can't simply learn to route around S1
#: for the whole run.
SPIKES = ((1_000.0, 0.95), (1_800.0, 0.0), (6_000.0, 0.95), (6_800.0, 0.0))

#: Static hedge delay (ms); per-signature p95 derivation takes over as
#: latency history accumulates.
HEDGE_AFTER_MS = 30.0

#: Checkpoint granularity of the ``combined`` drive's re-routing.
REROUTE_BATCH_ROWS = 8


def _spikes(deployment):
    deployment.servers["S1"].link.congestion = StepSchedule(list(SPIKES))


def _drive(databases, hedge_after_ms, reroute_batch_rows=None):
    return drive(
        databases,
        QUERIES,
        _spikes,
        hedge_after_ms=hedge_after_ms,
        reroute_batch_rows=reroute_batch_rows,
    )


def test_hedging_cuts_spike_tail(benchmark):
    databases = replica_databases()
    wall_start = time.perf_counter()
    both = dict(
        hedge_after_ms=HEDGE_AFTER_MS, reroute_batch_rows=REROUTE_BATCH_ROWS
    )

    def _measure():
        plain = _drive(databases, hedge_after_ms=None)
        hedged = _drive(databases, hedge_after_ms=HEDGE_AFTER_MS)
        rerun = _drive(databases, hedge_after_ms=HEDGE_AFTER_MS)
        combined = _drive(databases, **both)
        combined_rerun = _drive(databases, **both)
        return plain, hedged, rerun, combined, combined_rerun

    plain, hedged, rerun, combined, combined_rerun = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - wall_start

    (plain_out, plain_lat, _) = plain
    (hedged_out, hedged_lat, hedged_runtime) = hedged
    (rerun_out, rerun_lat, rerun_runtime) = rerun
    stats, rerun_stats = hedge_stats(hedged_runtime), hedge_stats(rerun_runtime)

    plain_profile = latency_profile(plain_lat)
    hedged_profile = latency_profile(hedged_lat)

    print("\n=== Hedged dispatch under transient congestion ===")
    for label, profile in (
        ("unhedged", plain_profile),
        ("hedged", hedged_profile),
    ):
        print(
            f"{label:>9}: p50={profile['p50_ms']:.1f}ms "
            f"p95={profile['p95_ms']:.1f}ms p99={profile['p99_ms']:.1f}ms"
        )
    print(
        f"   policy: fired={stats['fired']} "
        f"backup_wins={stats['backup_wins']} "
        f"suppressed={stats['suppressed']} "
        f"wasted={stats['wasted_ms']:.1f}ms"
    )
    combined_entry = combined_summary(
        combined, combined_rerun, plain_out, plain_profile, both
    )
    print(f"wall clock: {wall_s:.2f} s for {5 * QUERIES} queries")

    benchmark.extra_info["unhedged_p99_ms"] = plain_profile["p99_ms"]
    benchmark.extra_info["hedged_p99_ms"] = hedged_profile["p99_ms"]
    benchmark.extra_info["hedge_fired"] = stats["fired"]
    benchmark.extra_info["hedge_backup_wins"] = stats["backup_wins"]
    benchmark.extra_info["wall_s"] = wall_s

    if ARTIFACT:
        # No wall clock in the artifact: CI runs the bench twice and
        # cmp's the two files byte for byte.
        artifact = {
            "queries": QUERIES,
            "hedge_after_ms": HEDGE_AFTER_MS,
            "unhedged": plain_profile,
            "hedged": hedged_profile,
            "policy": stats,
            "combined": combined_entry,
        }
        with open(ARTIFACT, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"artifact written to {ARTIFACT}")

    # Zero oracle drift: hedging may move latency, never answers.
    assert hedged_out == plain_out
    assert all(status == "ok" for status, _ in plain_out)

    # Determinism: a hedged run is a pure function of the seed.
    assert rerun_out == hedged_out
    assert rerun_lat == hedged_lat
    assert rerun_stats == stats

    # The hedge must actually engage — a gate that passes because no
    # backup ever fired measures nothing.
    assert stats["fired"] > 0
    assert stats["backup_wins"] > 0

    # The tail cut itself, with the median held.
    assert (
        hedged_profile["p99_ms"]
        <= P99_IMPROVEMENT * plain_profile["p99_ms"]
    )
    assert hedged_profile["p50_ms"] <= 1.1 * plain_profile["p50_ms"]
