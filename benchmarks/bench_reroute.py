"""Mid-query batch re-routing under a load storm: the rescue gate.

Two identically seeded replica-topology deployments (S1/R1, S2/R2)
sharing one prebuilt dataset run the same open-loop query stream while
S1 suffers a sustained mid-run load storm (the paper's "heavy update
load" as a contention schedule).  Both runs see the *same* scheduled
calibration-epoch bumps — recalibration instants — so compile-time
routing, plan-cache epochs and calibrator feedback are bit-identical;
the only difference is the ``--reroute-batch`` knob.  Without it, a
fragment dispatched into the storm is stuck with its inflated service
demand; with it, the first bump checkpoints the uniform
``REROUTE_BATCH_ROWS``-row spans already shipped and migrates only the
remaining scan range to the idle replica.

Gates, all on virtual time and fully seeded:

* **Zero oracle drift** — per-index statuses and result rows of the
  rerouted and plain runs are identical.  Migration may only move
  latency, never answers (the differential harness in
  ``tests/integration/test_reroute_equivalence.py`` proves the
  byte-level version of this claim).
* **Tail rescue** — the rerouted run's p99 response time beats the
  plain run's by at least ``P99_IMPROVEMENT`` while the median stays
  put; migrations must actually fire and move rows.
* **Determinism** — two rerouted invocations produce bit-identical
  latencies and policy counters.

A third, ``combined`` drive turns hedging on beside re-routing under the
same storm and is held to the same three gates.

CI uploads the summary as ``bench-reroute.json`` and ``cmp``s a rerun.
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
    latency_profile,
    replica_databases,
    reroute_stats,
)

#: Queries in the stream; CI can shrink via the environment.
QUERIES = int(os.environ.get("REPRO_BENCH_REROUTE_QUERIES", "150"))

#: Optional path for a standalone JSON artifact of the results.
ARTIFACT = os.environ.get("REPRO_BENCH_REROUTE_JSON", "")

#: Sustained storm on S1 — the paper's "heavy update load" hits both
#: the CPU (level 0.9 ≈ 5.3x processing) and the server's link (level
#: 0.95 ≈ 8.6x latency): every fragment dispatched to S1 inside the
#: window carries an inflated service demand that only a mid-flight
#: migration can shed.
STORM_WINDOW = (2_000.0, 4_000.0)
STORM_LOAD = 0.9
STORM_CONGESTION = 0.95

#: Calibration-epoch bump instants: one recalibration cadence through
#: the storm window, scheduled identically in BOTH runs so compile-time
#: routing and plan-cache state never diverge between them.
BUMPS = tuple(2_100.0 + 150.0 * i for i in range(14))

#: Checkpoint granularity: a migration keeps the primary's rows up to
#: the last whole span of this many rows and re-ships the rest.
REROUTE_BATCH_ROWS = 8

#: Static hedge delay (ms) of the ``combined`` drive: above the
#: storm-free p99 (~56 ms), so a hedge covers only a fragment stuck well
#: past its usual latency.  A delay inside the normal latency range is
#: worse than no second leg under this *sustained* storm, with or
#: without re-routing beside it (30 ms: p99 1547 ms hedged, 1526 ms
#: combined, 1141 ms plain).  Measured at 30 ms: a winning backup is
#: reported to QCC at dispatch→finish, hedge wait included, so the
#: healthy replica's factor climbs (R1 10.6 against 3.95 re-routing
#: alone), the calibration cycle folds twice through the storm instead
#: of four times, 92 migrations are declined ``no-replica`` (R1 outside
#: the exchangeability band) and S1-bound fragments queue behind each
#: other.  See ROADMAP: deriving the hedge delay is the open item.
HEDGE_AFTER_MS = 100.0


def _storm(deployment):
    start, stop = STORM_WINDOW
    deployment.servers["S1"].load = StepSchedule(
        [(start, STORM_LOAD), (stop, 0.0)]
    )
    deployment.servers["S1"].link.congestion = StepSchedule(
        [(start, STORM_CONGESTION), (stop, 0.0)]
    )


def _drive(databases, reroute_batch_rows, hedge_after_ms=None):
    return drive(
        databases,
        QUERIES,
        _storm,
        hedge_after_ms=hedge_after_ms,
        reroute_batch_rows=reroute_batch_rows,
        bumps=BUMPS,
    )


def test_rerouting_rescues_storm_tail(benchmark):
    databases = replica_databases()
    wall_start = time.perf_counter()
    both = dict(
        hedge_after_ms=HEDGE_AFTER_MS, reroute_batch_rows=REROUTE_BATCH_ROWS
    )

    def _measure():
        plain = _drive(databases, reroute_batch_rows=None)
        rerouted = _drive(
            databases, reroute_batch_rows=REROUTE_BATCH_ROWS
        )
        rerun = _drive(
            databases, reroute_batch_rows=REROUTE_BATCH_ROWS
        )
        combined = _drive(databases, **both)
        combined_rerun = _drive(databases, **both)
        return plain, rerouted, rerun, combined, combined_rerun

    plain, rerouted, rerun, combined, combined_rerun = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    wall_s = time.perf_counter() - wall_start

    (plain_out, plain_lat, _) = plain
    (reroute_out, reroute_lat, reroute_runtime) = rerouted
    (rerun_out, rerun_lat, rerun_runtime) = rerun
    stats = reroute_stats(reroute_runtime)
    rerun_stats = reroute_stats(rerun_runtime)

    plain_profile = latency_profile(plain_lat)
    reroute_profile = latency_profile(reroute_lat)

    print("\n=== Mid-query re-routing under a load storm ===")
    for label, profile in (
        ("plain", plain_profile),
        ("rerouted", reroute_profile),
    ):
        print(
            f"{label:>9}: p50={profile['p50_ms']:.1f}ms "
            f"p95={profile['p95_ms']:.1f}ms p99={profile['p99_ms']:.1f}ms"
        )
    print(
        f"   policy: fired={stats['fired']:g} "
        f"declined={stats['declined']:g} "
        f"migrated_rows={stats['migrated_rows']:g} "
        f"wasted={stats['wasted_ms']:.1f}ms"
    )
    combined_entry = combined_summary(
        combined, combined_rerun, plain_out, plain_profile, both
    )
    print(f"wall clock: {wall_s:.2f} s for {5 * QUERIES} queries")

    benchmark.extra_info["plain_p99_ms"] = plain_profile["p99_ms"]
    benchmark.extra_info["rerouted_p99_ms"] = reroute_profile["p99_ms"]
    benchmark.extra_info["reroute_fired"] = stats["fired"]
    benchmark.extra_info["reroute_migrated_rows"] = stats["migrated_rows"]
    benchmark.extra_info["wall_s"] = wall_s

    if ARTIFACT:
        # No wall clock in the artifact: CI runs the bench twice and
        # cmp's the two files byte for byte.
        artifact = {
            "queries": QUERIES,
            "reroute_batch_rows": REROUTE_BATCH_ROWS,
            "plain": plain_profile,
            "rerouted": reroute_profile,
            "policy": stats,
            "combined": combined_entry,
        }
        with open(ARTIFACT, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"artifact written to {ARTIFACT}")

    # Zero oracle drift: migration may move latency, never answers.
    assert reroute_out == plain_out
    assert all(status == "ok" for status, _ in plain_out)

    # Determinism: a rerouted run is a pure function of the seed.
    assert rerun_out == reroute_out
    assert rerun_lat == reroute_lat
    assert rerun_stats == stats

    # Migrations must actually engage — a gate that passes because no
    # fragment ever moved measures nothing.
    assert stats["fired"] > 0
    assert stats["migrated_rows"] > 0
    assert stats["query_reroutes"] > 0

    # The tail rescue itself, with the median held.
    assert (
        reroute_profile["p99_ms"]
        <= P99_IMPROVEMENT * plain_profile["p99_ms"]
    )
    assert reroute_profile["p50_ms"] <= 1.1 * plain_profile["p50_ms"]
