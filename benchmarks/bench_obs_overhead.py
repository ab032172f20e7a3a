"""Observability overhead: the no-op sink must be free, tracing cheap.

The obs layer sits on the hot path of every federated query (integrator,
meta-wrapper, QCC, patroller all emit into it), so its disabled-by-
default null sink must cost nothing measurable.  This bench runs the
same workload three ways — null sink, metrics only, metrics + tracing —
and prints the per-query cost of each level of visibility.

The second bench gates the operator profiler's dispatch: with profiling
disabled (the default), ``PhysicalPlan.rows``/``rows_columnar`` add one
attribute load and one identity check per stream open.  It measures the
workload with the dispatch patched out entirely (the pre-profiler
baseline), with the dispatch in place but disabled, and with profiling
on, and enforces disabled ≤ ``REPRO_BENCH_OBS_MAX`` × baseline
(default 1.03, i.e. a 3% budget).  ``REPRO_BENCH_OBS_JSON`` writes the
measurements as a JSON artifact; ``REPRO_BENCH_OBS_REPS`` sets the
min-of-N repeat count.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager

import repro.obs as obs
from repro.obs.profile import disable_profiling, enable_profiling
from repro.harness import ascii_table, build_federation
from repro.sqlengine.physical import PhysicalPlan
from repro.workload import BENCH_SCALE, build_workload

QUERIES = 40


def _run_workload(databases) -> float:
    deployment = build_federation(
        scale=BENCH_SCALE, prebuilt_databases=databases
    )
    workload = build_workload(instances_per_type=max(1, QUERIES // 4), seed=7)
    start = time.perf_counter()
    for instance in workload[:QUERIES]:
        deployment.integrator.submit(instance.sql, label=instance.label)
    return time.perf_counter() - start


def _measure(databases):
    results = {}
    obs.disable()
    results["null sink (default)"] = _run_workload(databases)
    try:
        obs.configure(metrics=True, tracing=False, log_level=None)
        results["metrics only"] = _run_workload(databases)
        obs.configure(metrics=True, tracing=True, log_level=None)
        results["metrics + tracing"] = _run_workload(databases)
        traced = obs.get_obs().tracer.last()
    finally:
        obs.disable()
    return results, traced


def test_obs_overhead(benchmark, bench_databases):
    results, traced = benchmark.pedantic(
        _measure, args=(bench_databases,), rounds=1, iterations=1
    )

    baseline = results["null sink (default)"]
    print("\n=== Observability overhead (%d-query workload) ===" % QUERIES)
    rows = [
        [
            mode,
            f"{seconds * 1e3:.1f}",
            f"{seconds / QUERIES * 1e6:.0f}",
            f"{100 * (seconds - baseline) / baseline:+.1f}%",
        ]
        for mode, seconds in results.items()
    ]
    print(
        ascii_table(
            ["Sink", "Workload (ms)", "Per query (µs)", "vs null"], rows
        )
    )

    # The fully-enabled run must actually have produced a trace...
    assert traced is not None
    assert traced.find("dispatch")
    # ...and even full tracing must stay within 2x of the null sink (the
    # real expectation is a few percent; 2x only guards against the
    # instrumentation accidentally becoming the workload).
    assert results["metrics + tracing"] < 2.0 * baseline


@contextmanager
def _dispatch_patched_out():
    """Remove the profiler check from operator dispatch entirely.

    Replaces the public ``rows``/``rows_columnar`` dispatchers with bare
    pass-throughs to the private implementations — the code shape the
    executor had before the profiler existed, i.e. the true no-obs
    baseline for the dispatch gate.
    """
    original_rows = PhysicalPlan.rows
    original_columnar = PhysicalPlan.rows_columnar
    PhysicalPlan.rows = lambda self, ctx: self._rows(ctx)
    PhysicalPlan.rows_columnar = lambda self, ctx: self._rows_columnar(ctx)
    try:
        yield
    finally:
        PhysicalPlan.rows = original_rows
        PhysicalPlan.rows_columnar = original_columnar


#: Executed repeatedly against one server database for the dispatch
#: gate: pure engine work (scan + join + aggregate), no federation
#: machinery, so run-to-run noise is small enough for a tight budget.
_GATE_SQL = (
    "SELECT o.priority, COUNT(*) AS cnt, SUM(l.extprice) AS revenue "
    "FROM orders o JOIN lineitem l ON o.orderkey = l.orderkey "
    "WHERE o.totalprice > 5000 GROUP BY o.priority"
)


def _measure_profiler(databases):
    database = databases["S1"]
    plan = database.explain(_GATE_SQL)[0].plan
    reps = int(os.environ.get("REPRO_BENCH_OBS_REPS", "5"))
    execs = int(os.environ.get("REPRO_BENCH_OBS_EXECS", "10"))

    def timed_exec() -> float:
        start = time.perf_counter()
        database.run_plan(plan)
        return time.perf_counter() - start

    obs.disable()
    disable_profiling()
    raw = []
    disabled = []
    profiled = []
    try:
        for _ in range(3):
            timed_exec()  # warm caches before the first timed pair
        # Back-to-back pairs: machine drift (frequency scaling, noisy
        # CI neighbours) spans whole milliseconds-apart pairs, so the
        # per-pair ratio cancels it; the gate uses the median ratio.
        for _ in range(execs * reps):
            with _dispatch_patched_out():
                raw.append(timed_exec())
            disabled.append(timed_exec())
            enable_profiling()
            try:
                profiled.append(timed_exec())
            finally:
                disable_profiling()
    finally:
        disable_profiling()
    return {
        "no-obs baseline (dispatch removed)": raw,
        "profiling disabled (default)": disabled,
        "profiling enabled": profiled,
    }, execs * reps


def _median(values):
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def test_profiler_dispatch_overhead(benchmark, bench_databases):
    samples, execs = benchmark.pedantic(
        _measure_profiler, args=(bench_databases,), rounds=1, iterations=1
    )

    raw = samples["no-obs baseline (dispatch removed)"]
    max_ratio = float(os.environ.get("REPRO_BENCH_OBS_MAX", "1.03"))
    ratio = _median(
        d / r for r, d in zip(raw, samples["profiling disabled (default)"])
    )
    profiled_ratio = _median(
        p / r for r, p in zip(raw, samples["profiling enabled"])
    )
    results = {mode: min(times) for mode, times in samples.items()}
    baseline = results["no-obs baseline (dispatch removed)"]

    print(
        "\n=== Profiler dispatch overhead "
        "(%d paired plan executions) ===" % execs
    )
    rows = [
        [
            mode,
            f"{seconds * 1e3:.3f}",
            f"{100 * (seconds - baseline) / baseline:+.2f}%",
        ]
        for mode, seconds in results.items()
    ]
    print(
        ascii_table(["Mode", "Best exec (ms)", "vs baseline"], rows)
    )
    print(
        f"median paired ratios: disabled/baseline {ratio:.4f} "
        f"(max {max_ratio:.2f}), enabled/baseline {profiled_ratio:.4f}"
    )

    artifact = os.environ.get("REPRO_BENCH_OBS_JSON")
    if artifact:
        with open(artifact, "w") as handle:
            json.dump(
                {
                    "plan_executions": execs,
                    "best_exec_seconds": results,
                    "disabled_over_baseline": ratio,
                    "enabled_over_baseline": profiled_ratio,
                    "max_ratio": max_ratio,
                },
                handle,
                indent=2,
            )

    # The gate: the disabled dispatch must be indistinguishable from no
    # instrumentation at all (within the noise budget).
    assert ratio <= max_ratio, (
        f"disabled-profiler dispatch costs {100 * (ratio - 1):.1f}% "
        f"(budget {100 * (max_ratio - 1):.1f}%)"
    )
    # Profiling on may legitimately cost more, but must stay sane.
    assert results["profiling enabled"] < 2.0 * baseline

