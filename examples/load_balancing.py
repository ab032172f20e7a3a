"""Load distribution over replicas (Section 4).

A hot stream of one federated join hits a four-server federation where
R1 replicates S1's tables and R2 replicates S2's — the paper's Q6
scenario.  Servers heat up under their own traffic (induced load), so
routing every instance to the cheapest plan creates a hot spot.  QCC's
global-level balancer derives the alternative global plans (the explain
table only stores the winner!), prunes dominated ones, clusters plans
within 20% of the cheapest and rotates round-robin.

Run:  python examples/load_balancing.py
"""

from repro.core import (
    LoadBalanceConfig,
    QCCConfig,
    WhatIfPlanner,
    build_simulated_meta_wrapper,
)
from repro.core.cycle import CycleConfig
from repro.harness import ascii_table, build_replica_federation, mean
from repro.workload import TEST_SCALE

Q6 = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey "
    "WHERE o.totalprice > 8000 GROUP BY o.priority"
)

FROZEN_CYCLE = CycleConfig(
    base_interval_ms=600_000.0,
    min_interval_ms=600_000.0,
    max_interval_ms=600_000.0,
)


def run_stream(balanced: bool, queries: int = 20):
    config = QCCConfig(
        enable_global_balancing=balanced,
        load_balance=LoadBalanceConfig(band=0.3),
        cycle=FROZEN_CYCLE,
        drift_trigger_ratio=0.0,
    )
    deployment = build_replica_federation(
        scale=TEST_SCALE,
        qcc_config=config,
        induced_load=True,
        induced_gain=0.002,
        induced_decay_ms=8_000.0,
    )
    responses = []
    usage = {}
    for _ in range(queries):
        result = deployment.integrator.submit(Q6)
        responses.append(result.response_ms)
        for outcome in result.fragments.values():
            server = outcome.option.server
            usage[server] = usage.get(server, 0) + 1
    return deployment, mean(responses), usage


def main() -> None:
    print("Hot query (Q6):", Q6, "\n")

    # First, show the what-if machinery the balancer relies on: masked
    # explains against a simulated copy of the federation (stats-only
    # servers, QCC's factors read but never fed).
    deployment, _, _ = run_stream(balanced=False, queries=1)
    planner = WhatIfPlanner(
        registry=deployment.registry,
        meta_wrapper=build_simulated_meta_wrapper(deployment),
        ii_profile=deployment.integrator.profile,
    )
    whatif = planner.derive_global_plans(Q6, deployment.clock.now)
    print(
        f"What-if planner derived {len(whatif.plans)} alternative global "
        f"plans using {whatif.explain_calls} masked explain calls:"
    )
    for plan in whatif.plans:
        print(f"  {plan.plan_id}: servers={sorted(plan.servers)} "
              f"cost={plan.total_cost:.1f}")

    print("\nStreaming 20 hot queries through each routing policy...")
    _, greedy_ms, greedy_usage = run_stream(balanced=False)
    _, balanced_ms, balanced_usage = run_stream(balanced=True)

    print()
    print(
        ascii_table(
            ["Policy", "Mean response (ms)", "Fragment executions per server"],
            [
                ["always cheapest", greedy_ms, str(dict(sorted(greedy_usage.items())))],
                ["round-robin cluster", balanced_ms, str(dict(sorted(balanced_usage.items())))],
            ],
            title="Hot-spot vs load-distributed routing",
        )
    )
    print(
        "\nThe cheapest-plan policy funnels every fragment to the same two "
        "servers,\nwhich heat up under their own traffic; rotating within "
        "the near-cost cluster\nspreads the work across the replicas."
    )


if __name__ == "__main__":
    main()
