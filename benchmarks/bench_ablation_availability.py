"""Ablation A4: availability and reliability handling (Section 3.3).

S3 — the server every cost model loves — becomes flaky (transient
errors on a fraction of requests).  Three systems process the same
workload:

* ``no QCC``          — cost-based routing, pays a failover penalty on
                        every failed dispatch;
* ``QCC, no reliability`` — calibration only; down-marking helps but the
                        reliability factor is disabled;
* ``QCC + reliability``   — flakiness inflates S3's calibrated costs, so
                        routing avoids it proactively.

Shape: QCC cuts failover retries versus no-QCC; enabling the
reliability factor cuts them further (or at least not worse) and keeps
mean response lowest.
"""

from __future__ import annotations


from repro.baselines import qcc_deployment, uncalibrated_deployment
from repro.core import QCCConfig
from repro.harness import ascii_table, mean, run_workload_once
from repro.workload import BENCH_SCALE, build_workload

ERROR_RATE = 0.35
PASSES = 3


def _run(deployment, workload):
    responses = []
    retries = 0
    for _ in range(PASSES):
        outcomes = run_workload_once(deployment, workload)
        responses.extend(o.response_ms for o in outcomes if not o.failed)
        retries += sum(o.retries for o in outcomes)
        deployment.qcc.recalibrate(deployment.clock.now)
    failures = deployment.integrator.patroller.failure_count()
    return mean(responses), retries, failures


def _measure(databases, workload):
    no_qcc = uncalibrated_deployment(
        scale=BENCH_SCALE, prebuilt_databases=databases
    )
    for name, server in no_qcc.servers.items():
        if name == "S3":
            server.errors.error_rate = ERROR_RATE

    qcc_plain = qcc_deployment(
        scale=BENCH_SCALE,
        prebuilt_databases=databases,
        qcc_config=QCCConfig(enable_reliability=False),
    )
    qcc_plain.servers["S3"].errors.error_rate = ERROR_RATE

    qcc_reliable = qcc_deployment(
        scale=BENCH_SCALE,
        prebuilt_databases=databases,
        qcc_config=QCCConfig(enable_reliability=True, reliability_weight=3.0),
    )
    qcc_reliable.servers["S3"].errors.error_rate = ERROR_RATE

    return {
        "no QCC": _run(no_qcc, workload),
        "QCC, no reliability": _run(qcc_plain, workload),
        "QCC + reliability": _run(qcc_reliable, workload),
    }


def test_ablation_availability_and_reliability(benchmark, bench_databases):
    workload = build_workload(instances_per_type=4, seed=7)
    results = benchmark.pedantic(
        _measure, args=(bench_databases, workload), rounds=1, iterations=1
    )

    print("\n=== Ablation A4: flaky S3 (error rate %.0f%%) ===" % (ERROR_RATE * 100))
    rows = [
        [name, response, retries, failures]
        for name, (response, retries, failures) in results.items()
    ]
    print(
        ascii_table(
            ["System", "Mean response (ms)", "Failover retries", "Failed queries"],
            rows,
        )
    )

    no_qcc = results["no QCC"]
    reliable = results["QCC + reliability"]
    # QCC's error-log down-marking plus the reliability factor avoid
    # most failover penalties a blind cost-based system keeps paying.
    assert reliable[1] <= no_qcc[1]
    assert reliable[0] <= no_qcc[0] * 1.05
    # No query is lost in any variant (failover keeps them alive).
    assert all(failures == 0 for _, _, failures in results.values())
