"""Figure 9 (a)-(d): sensitivity of each query type to system load.

Regenerates the paper's per-server response-time measurements for the
four query fragment types under low ("Base") and high ("Load")
conditions.  The shape assertions encode Section 5.2's observations:

* S3 functions better than the others in most (base) situations;
* for the costlier, CPU-bound QT2, S3 is much more sensitive to load —
  when only S3 is loaded, S1/S2 become more desirable;
* for QT3, S3 stays cheapest even when it is highly loaded and the
  other two are not (so naive load-based routing is also wrong).
"""

from __future__ import annotations

import json
import os
import time

#: Optional path for a standalone JSON artifact of the results.
ARTIFACT = os.environ.get("REPRO_BENCH_FIGURE9_JSON", "")


def test_figure9_sensitivity_of_query_type_to_load(benchmark, evaluation):
    wall_start = time.perf_counter()
    figure = benchmark.pedantic(evaluation.figure9, rounds=1, iterations=1)
    results = figure.measurements
    wall_s = time.perf_counter() - wall_start
    # One observation per (query type, load condition, server).
    executed = sum(
        len(series) for data in results.values() for series in data.values()
    )
    real_qps = executed / wall_s if wall_s > 0 else float("inf")

    print("\n" + figure.render())

    # Virtual-time series above; real wall-clock throughput below.
    print(
        f"\nwall clock: {wall_s:.2f} s for {executed} observations "
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
            "virtual_response_ms": results,
        }
        with open(ARTIFACT, "w") as handle:
            json.dump(artifact, handle, indent=2)
        print(f"artifact written to {ARTIFACT}")

    # -- shape assertions ---------------------------------------------------
    for name, data in results.items():
        base, loaded = data["base"], data["loaded"]
        # Load monotonically increases every server's response time.
        for server in ("S1", "S2", "S3"):
            assert loaded[server] > base[server], (name, server)
        # S3 (most powerful) wins under base conditions for every type.
        assert min(base, key=base.get) == "S3", name

    # QT2: with only S3 loaded, another server becomes preferable.
    qt2 = results["QT2"]["s3_loaded"]
    assert min(qt2, key=qt2.get) != "S3"

    # QT3: S3 stays cheapest even when it alone is loaded.
    qt3 = results["QT3"]["s3_loaded"]
    assert min(qt3, key=qt3.get) == "S3"

    # QT2 degrades proportionally more on S3 than QT3 does.
    qt2_inflation = results["QT2"]["s3_loaded"]["S3"] / results["QT2"]["base"]["S3"]
    qt3_inflation = results["QT3"]["s3_loaded"]["S3"] / results["QT3"]["base"]["S3"]
    assert qt2_inflation > qt3_inflation
