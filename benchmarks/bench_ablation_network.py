"""Ablation A5: network congestion awareness.

The paper's cost functions ignore "the dynamic nature of network latency
between remote servers and II".  Here the WAN link to the fastest server
(S3) becomes congested — its processing capacity is untouched — and the
same workload runs on an uncalibrated system and on QCC.

The uncalibrated optimizer keeps choosing S3 (its estimates contain no
network term that could change), paying the congested round trips.  QCC
folds the inflated response times into S3's calibration factor and
reroutes.

Shape: with a congested S3 link, QCC's mean response beats the
uncalibrated system's; without congestion the two tie.
"""

from __future__ import annotations


from repro.baselines import qcc_deployment, uncalibrated_deployment
from repro.harness import ascii_table, mean, run_workload_once
from repro.sim import MutableLoad, NetworkLink
from repro.workload import BENCH_SCALE, build_workload

#: Congested latency multiplier is 1 + slope * level.
CONGESTION_SLOPE = 40.0
CONGESTION_LEVEL = 0.9


def _with_congestible_link(deployment):
    """Replace S3's link with one whose congestion we can flip."""
    control = MutableLoad(0.0)
    deployment.servers["S3"].link = NetworkLink(
        latency_ms=3.0,
        bandwidth_mbps=150.0,
        congestion=control,
        latency_slope=CONGESTION_SLOPE,
    )
    return control


def _run(deployment, control, workload, congested: bool):
    control.set(CONGESTION_LEVEL if congested else 0.0)
    deployment.clock.advance(3_000.0)
    deployment.qcc.probe_servers(deployment.clock.now)
    # adaptation passes, then the measured pass
    for _ in range(2):
        run_workload_once(deployment, workload)
        deployment.qcc.recalibrate(deployment.clock.now)
    outcomes = run_workload_once(deployment, workload)
    responses = [o.response_ms for o in outcomes if not o.failed]
    s3_hits = sum(1 for o in outcomes if "S3" in o.servers)
    return mean(responses), s3_hits


def _measure(databases, workload):
    results = {}
    for name, factory in (
        ("uncalibrated", uncalibrated_deployment),
        ("QCC", qcc_deployment),
    ):
        deployment = factory(scale=BENCH_SCALE, prebuilt_databases=databases)
        control = _with_congestible_link(deployment)
        clear_ms, clear_s3 = _run(deployment, control, workload, congested=False)
        congested_ms, congested_s3 = _run(
            deployment, control, workload, congested=True
        )
        results[name] = {
            "clear_ms": clear_ms,
            "clear_s3": clear_s3,
            "congested_ms": congested_ms,
            "congested_s3": congested_s3,
        }
    return results


def test_ablation_network_congestion(benchmark, bench_databases):
    workload = build_workload(instances_per_type=4, seed=7)
    results = benchmark.pedantic(
        _measure, args=(bench_databases, workload), rounds=1, iterations=1
    )

    print("\n=== Ablation A5: congested WAN link to S3 ===")
    rows = [
        [
            name,
            data["clear_ms"],
            f"{data['clear_s3']}/{len(workload)}",
            data["congested_ms"],
            f"{data['congested_s3']}/{len(workload)}",
        ]
        for name, data in results.items()
    ]
    print(
        ascii_table(
            [
                "System",
                "Clear link (ms)",
                "S3 use",
                "Congested link (ms)",
                "S3 use ",
            ],
            rows,
        )
    )

    uncal = results["uncalibrated"]
    qcc = results["QCC"]
    # With a clear link both route to S3 and tie (within noise).
    assert abs(qcc["clear_ms"] - uncal["clear_ms"]) < uncal["clear_ms"] * 0.1
    # Under congestion the blind system keeps hammering S3...
    assert uncal["congested_s3"] == len(workload)
    # ...while QCC moves traffic off the congested link and wins.
    assert qcc["congested_s3"] < uncal["congested_s3"]
    assert qcc["congested_ms"] < uncal["congested_ms"] * 0.9
