"""Throughput under offered load: the load-balancing payoff.

The paper motivates load distribution with "better overall system
performance" when a workload concentrates on few servers.  This
experiment quantifies it: queries arrive open-loop at increasing rates
at a replica federation whose servers heat up under their own traffic.
The cheapest-plan policy saturates its favourite servers; QCC's
global-level rotation spreads the stream and holds response times down
at rates where the hot spot melts.

(Not a figure in the paper — an extension experiment over the same
machinery, with the calibration cycle frozen so rotation is the lever.)
"""

from __future__ import annotations

import json
import os
import time

from repro.core import LoadBalanceConfig, QCCConfig
from repro.core.cycle import CycleConfig
from repro.harness import ascii_table, mean
from repro.harness.deployment import build_replica_federation
from repro.workload import BENCH_SCALE

Q6 = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey "
    "WHERE o.totalprice > 8000 AND l.quantity > 40 GROUP BY o.priority"
)

#: Offered load: queries per second of virtual time.
ARRIVAL_RATES = (2.0, 5.0, 10.0)
QUERIES_PER_RATE = 30

FROZEN_CYCLE = CycleConfig(
    base_interval_ms=600_000.0,
    min_interval_ms=600_000.0,
    max_interval_ms=600_000.0,
)


def _run(rate_qps: float, balanced: bool) -> float:
    config = QCCConfig(
        enable_global_balancing=balanced,
        load_balance=LoadBalanceConfig(band=0.6),
        cycle=FROZEN_CYCLE,
        drift_trigger_ratio=0.0,
    )
    deployment = build_replica_federation(
        scale=BENCH_SCALE,
        qcc_config=config,
        induced_load=True,
        induced_gain=0.0005,
        induced_decay_ms=8_000.0,
    )
    interval_ms = 1_000.0 / rate_qps
    responses = []
    for index in range(QUERIES_PER_RATE):
        arrival = index * interval_ms
        result = deployment.integrator.submit(Q6, t_ms=arrival)
        responses.append(result.response_ms)
    return mean(responses)


#: Optional path for a standalone JSON artifact of the results.
ARTIFACT = os.environ.get("REPRO_BENCH_THROUGHPUT_JSON", "")


def _measure():
    table = {}
    for rate in ARRIVAL_RATES:
        table[rate] = (
            _run(rate, balanced=False),
            _run(rate, balanced=True),
        )
    return table


def test_throughput_under_offered_load(benchmark):
    wall_start = time.perf_counter()
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)
    wall_s = time.perf_counter() - wall_start
    # Two deployments (greedy + balanced) per arrival rate.
    executed = 2 * len(ARRIVAL_RATES) * QUERIES_PER_RATE
    real_qps = executed / wall_s if wall_s > 0 else float("inf")

    print("\n=== Throughput: mean response vs offered load (hot Q6) ===")
    rows = [
        [f"{rate:.0f} q/s", greedy, balanced,
         f"{100 * (greedy - balanced) / greedy:.1f}%"]
        for rate, (greedy, balanced) in results.items()
    ]
    print(
        ascii_table(
            ["Offered load", "Cheapest-plan (ms)", "Balanced (ms)", "Relief"],
            rows,
        )
    )
    # Virtual-time means above; real wall-clock throughput below.
    print(
        f"wall clock: {wall_s:.2f} s for {executed} queries "
        f"({real_qps:.1f} q/s real time)"
    )
    benchmark.extra_info["wall_s"] = wall_s
    benchmark.extra_info["queries"] = executed
    benchmark.extra_info["real_qps"] = real_qps

    if ARTIFACT:
        artifact = {
            "wall_s": wall_s,
            "queries": executed,
            "real_qps": real_qps,
            "virtual_mean_response_ms": {
                str(rate): {"greedy": greedy, "balanced": balanced}
                for rate, (greedy, balanced) in results.items()
            },
        }
        with open(ARTIFACT, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"artifact written to {ARTIFACT}")

    # Hot-spotting hurts more as the rate grows...
    greedy_curve = [results[r][0] for r in ARRIVAL_RATES]
    assert greedy_curve[-1] > greedy_curve[0]
    # ...and balancing relieves it at the highest rate.
    top_rate = ARRIVAL_RATES[-1]
    greedy, balanced = results[top_rate]
    assert balanced < greedy
