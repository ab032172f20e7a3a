"""Quickstart: stand up a federation and run a federated query.

Builds the paper's evaluation deployment — one integrator (II), a
meta-wrapper, a Query Cost Calibrator and three heterogeneous remote
servers with the replicated sample schema — then walks one query through
the compile-time and runtime phases, printing what each layer saw.

Run:  python examples/quickstart.py
"""

from repro import build_federation, build_workload
from repro.workload import TEST_SCALE


def main() -> None:
    print("Building federation (3 servers, replicated sample schema)...")
    deployment = build_federation(scale=TEST_SCALE)
    integrator = deployment.integrator

    sql = (
        "SELECT o.priority, COUNT(*) AS orders, SUM(l.extprice) AS revenue "
        "FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey "
        "WHERE o.totalprice > 5000 GROUP BY o.priority ORDER BY o.priority"
    )
    print(f"\nFederated query:\n  {sql}\n")

    # Compile time: fragments, candidate plans, ranked global plans.
    decomposed, plans = integrator.compile(sql)
    print(f"Decomposed into {len(decomposed.fragments)} fragment(s):")
    for fragment in decomposed.fragments:
        print(
            f"  {fragment.fragment_id}: candidates={fragment.candidate_servers}"
        )
    print("\nTop global plans (calibrated cost, cheapest first):")
    for plan in plans[:5]:
        print(f"  {plan.describe()}")

    # Runtime: execute, merge, observe.
    result = integrator.submit(sql)
    print(f"\nChosen plan ran on: {sorted(result.servers)}")
    print(f"Response time: {result.response_ms:.1f} ms "
          f"(remote {result.remote_ms:.1f} + merge {result.merge_ms:.1f})")
    print(f"Rows ({result.row_count}):")
    for row in result.rows:
        print(f"  {row}")

    # What QCC observed.
    print("\nQCC status after one query:")
    for key, value in deployment.qcc.status().items():
        print(f"  {key}: {value}")

    # A small workload teaches QCC per-fragment factors.
    print("\nRunning a 12-query mixed workload (QT1-QT4)...")
    for instance in build_workload(instances_per_type=3):
        integrator.submit(instance.sql, label=instance.label)
    deployment.qcc.recalibrate(deployment.clock.now)
    print("Per-server calibration factors "
          "(observed/estimated cost ratios):")
    for server, factor in sorted(
        deployment.qcc.calibrator.server_factors().items()
    ):
        print(f"  {server}: {factor:.2f}")
    print(
        f"\nMean response over the workload: "
        f"{integrator.patroller.mean_response_ms():.1f} ms"
    )


if __name__ == "__main__":
    main()
