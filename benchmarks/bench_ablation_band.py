"""Ablation A3: the near-cost cluster band (the paper's "within 20%").

Section 4 clusters plans whose calibrated costs are within a band of
the cheapest and rotates among them.  Band 0 disables rotation (hot
spot); a moderate band rotates among genuinely comparable plans; an
extreme band admits much slower plans into the rotation.

Shape: a moderate band beats band 0 under induced load; the mean
response is reported for every band so the trade-off is visible.
"""

from __future__ import annotations

import pytest

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

BANDS = (0.0, 0.02, 0.2, 0.4, 0.8)
QUERIES_PER_RUN = 24
INDUCED_GAIN = 0.0005
INDUCED_DECAY_MS = 8_000.0

#: Calibration frozen for the run so the band is the only lever
#: (see bench_ablation_loadbalance for the rationale).
FROZEN_CYCLE = CycleConfig(
    base_interval_ms=600_000.0,
    min_interval_ms=600_000.0,
    max_interval_ms=600_000.0,
)


def _run_band(band: float) -> float:
    config = QCCConfig(
        enable_global_balancing=True,
        load_balance=LoadBalanceConfig(band=band),
        cycle=FROZEN_CYCLE,
        drift_trigger_ratio=0.0,
    )
    deployment = build_replica_federation(
        scale=BENCH_SCALE,
        qcc_config=config,
        induced_load=True,
        induced_gain=INDUCED_GAIN,
        induced_decay_ms=INDUCED_DECAY_MS,
    )
    responses = [
        deployment.integrator.submit(Q6).response_ms
        for _ in range(QUERIES_PER_RUN)
    ]
    return mean(responses)


def _measure():
    return {f"band={band:.2f}": _run_band(band) for band in BANDS}


def test_ablation_cluster_band(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print("\n=== Ablation A3: near-cost cluster band sensitivity ===")
    print(
        ascii_table(
            ["Band", "Mean response (ms)"],
            [[name, value] for name, value in results.items()],
        )
    )

    no_rotation = results["band=0.00"]
    tight = results["band=0.02"]
    moderate = min(results["band=0.20"], results["band=0.40"])
    # Replicas cost ~8% above origins: a 2% band cannot admit them into
    # the rotation (same hot spot as band 0), the paper's 20% band can.
    assert tight == pytest.approx(no_rotation, rel=0.05)
    assert moderate < no_rotation
