"""One benchmark pass: set a workload up, time it, check it, measure it.

A pass runs in a fresh interpreter (``run.py child``), so plan caches,
the program's global observability state and peak RSS never leak from
one pass into the next.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from answers import count_wrong, verdict_digest
from layers import LAYERS, QUERY_LAYER, ROOT, LayerTimer, traced
from workloads import Spec, Verdict, open_session

#: A completed query slower than this many virtual ms misses the SLO;
#: a shed, failed or wrongly answered query misses it by definition.
SLO_LIMIT_MS = 2_000.0


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The q-quantile by nearest rank (0.0 for no samples)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end_metrics(
    verdicts: Sequence[Verdict],
    statuses: Counter,
    wrong: int,
    setup_s: float,
    wall_s: float,
    makespan_ms: float,
    peak_rss_mb: float,
) -> Dict[str, float]:
    offered = len(verdicts)
    completed = statuses["completed"]
    bad = statuses["failed"] + wrong
    responses = sorted(
        v.response_ms for v in verdicts if v.status == "completed"
    )
    slow = sum(1 for ms in responses if ms > SLO_LIMIT_MS)
    return {
        "setup_s": setup_s,
        "wall_qps": (completed - wrong) / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "virt_response_ms_p50": nearest_rank(responses, 0.50),
        "virt_response_ms_p95": nearest_rank(responses, 0.95),
        "virt_sustained_qps": completed / (makespan_ms / 1000.0),
        "slo_miss_fraction": (statuses["shed"] + bad + slow) / offered,
        "failed_fraction": bad / offered,
    }


def layer_metrics(
    timer: LayerTimer, session, verdicts: Sequence[Verdict], epoch_bumps: int
) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (names as in BENCHMARK.json)."""
    calls = timer.calls
    self_s = timer.self_s
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls.get(layer, 0)
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    admitted = sum(1 for v in verdicts if v.status != "shed")
    metrics["sqlengine.explains_per_query"] = ratio(
        calls.get("sqlengine.explain", 0), admitted
    )
    rows_out = timer.measured.get("sqlengine.run_plan", 0.0)
    metrics["sqlengine.run_plan.rows_out"] = rows_out
    metrics["sqlengine.run_plan.rows_per_s"] = ratio(
        rows_out, self_s.get("sqlengine.run_plan", 0.0)
    )

    cache = session.integrator.plan_cache.stats()
    for stat in ("hits", "misses", "invalidations", "evictions", "hit_rate"):
        metrics[f"fed.plan_cache.{stat}"] = cache[stat]
    metrics["core.epoch.bumps"] = epoch_bumps

    decisions = (
        session.runtime.admission.decisions if session.runtime else []
    )
    metrics["fed.admission.decide.us_per_call"] = 1e6 * ratio(
        self_s.get("fed.admission.decide", 0.0), len(decisions)
    )
    metrics["fed.admission.admitted_fraction"] = ratio(
        sum(1 for d in decisions if d.admitted), len(decisions)
    )
    hedging = session.runtime.hedging if session.runtime else None
    hedge = hedging.stats() if hedging is not None else {}
    fired = hedge.get("fired", 0.0)
    metrics["fed.hedging.fired"] = fired
    metrics["fed.hedging.backup_wins"] = hedge.get("backup_wins", 0.0)
    metrics["fed.hedging.useful_fraction"] = ratio(
        hedge.get("backup_wins", 0.0), fired
    )
    metrics["fed.hedging.wasted_ms"] = hedge.get("wasted_ms", 0.0)

    submit_ms = sorted(timer.durations_ms(QUERY_LAYER))
    metrics[f"{QUERY_LAYER}.wall_ms_p50"] = nearest_rank(submit_ms, 0.50)
    metrics[f"{QUERY_LAYER}.wall_ms_p95"] = nearest_rank(submit_ms, 0.95)
    metrics["fed.integrator.retries"] = sum(v.retries for v in verdicts)

    # The stopwatch reads the host probe inside the root span; that time
    # is the benchmark's, not the program's.
    probing_s = session.stopwatch.probing_s
    metrics["harness.unattributed_s"] = self_s.get(ROOT, 0.0) - probing_s
    metrics["harness.traced_wall_s"] = timer.wall_s - probing_s
    return metrics


def measure_pass(
    spec: Spec,
    seed: int,
    trace: bool,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run *spec* once in this process and return everything measured."""
    # Raw seconds: a discount from two probe readings around a set-up of
    # 0.03-0.9 s widened the spread as often as it narrowed it
    # (steady_seconds_aa.json).
    start = perf_counter()
    session = open_session(spec, seed)
    setup_s = perf_counter() - start

    epoch = session.integrator.calibration_epoch
    epoch_before = epoch.value
    timer = LayerTimer()
    gc.collect()
    if trace:
        with traced(timer):
            makespan_ms = timer.wrap(ROOT, session.run)()
    else:
        makespan_ms = session.run()
    stopwatch = session.stopwatch
    wall_s = sum(stopwatch.slices_s)
    # Before the checker loads its reference database: the peak so far
    # is set-up plus the timed region.  Linux reports KiB.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts: List[Verdict] = session.verdicts()
    statuses = Counter(v.status for v in verdicts)
    wrong = count_wrong(spec.scale, verdicts)
    result: Dict[str, object] = {
        "workload": spec.name,
        "seed": seed,
        "traced": trace,
        "offered": len(verdicts),
        "completed": statuses["completed"],
        "shed": statuses["shed"],
        "errors": statuses["failed"],
        "wrong": wrong,
        "wall_s": wall_s,
        "slices_s": stopwatch.slices_s,
        "probes_s": stopwatch.probes_s,
        # The host's speed over this pass, as the probe read it.
        "probe_ms": 1000.0 * statistics.median(stopwatch.probes_s),
        "verdict_digest": verdict_digest(verdicts),
        "end_to_end": end_to_end_metrics(
            verdicts, statuses, wrong, setup_s, wall_s, makespan_ms, peak_rss_mb
        ),
    }
    if trace:
        result["per_layer"] = layer_metrics(
            timer, session, verdicts, epoch.value - epoch_before
        )
        if spans_path is not None:
            timer.write_spans(spans_path)
    return result
