"""Ablation A2: load-distribution granularity (Sections 4.1 / 4.2).

A hot stream of one federated join (the paper's Q6 shape) hits a
replica federation whose servers heat up under their own traffic
(induced load).  Routing every instance to the cheapest plan creates
the hot spot the paper warns about; round-robin over near-cost plans
spreads it.

Variants: no balancing / fragment-level / global-level.

Shape: both balancing levels beat no balancing; global-level must be at
least as good as fragment-level for multi-fragment joins (it can rotate
whole server sets).
"""

from __future__ import annotations


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

QUERIES_PER_RUN = 24
INDUCED_GAIN = 0.0005
INDUCED_DECAY_MS = 8_000.0

#: Freeze the calibration cycle for the run: calibration itself also
#: spreads load (slowly, by reacting to heat); the ablation isolates the
#: *rotation* mechanism of Section 4, which acts per-query.
FROZEN_CYCLE = CycleConfig(
    base_interval_ms=600_000.0,
    min_interval_ms=600_000.0,
    max_interval_ms=600_000.0,
)


def _run_variant(fragment: bool, global_: bool):
    config = QCCConfig(
        enable_fragment_balancing=fragment,
        enable_global_balancing=global_,
        load_balance=LoadBalanceConfig(band=0.6),
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
    responses = []
    usage = {}
    for _ in range(QUERIES_PER_RUN):
        result = deployment.integrator.submit(Q6)
        responses.append(result.response_ms)
        for fragment in result.fragments.values():
            usage[fragment.server] = usage.get(fragment.server, 0) + 1
    return mean(responses), usage


def _measure():
    return {
        "no balancing": _run_variant(False, False),
        "fragment-level": _run_variant(True, False),
        "global-level": _run_variant(False, True),
    }


def test_ablation_load_distribution_granularity(benchmark):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print("\n=== Ablation A2: load distribution granularity (hot Q6 stream) ===")
    rows = [
        [name, response, str(usage)]
        for name, (response, usage) in results.items()
    ]
    print(ascii_table(["Variant", "Mean response (ms)", "Server usage"], rows))

    none_ms, none_usage = results["no balancing"]
    frag_ms, frag_usage = results["fragment-level"]
    glob_ms, glob_usage = results["global-level"]

    # Without balancing (and with frozen calibration) the stream
    # concentrates on one server per fragment: the paper's hot spot.
    assert len(none_usage) == 2
    # Balancing spreads across replicas...
    assert len(frag_usage) > 2
    assert len(glob_usage) > 2
    # ...and relieves the self-inflicted hot spot.
    assert frag_ms < none_ms
    assert glob_ms < none_ms
