"""The metric catalog: every metric family the stack can emit.

CI treats the observability surface as an API: the committed
``docs/metrics_catalog.txt`` lists every metric family (kind, name,
label *keys*) and this module regenerates that list from a
deterministic reference exercise — one seeded overload ``run_loadgen``
with tracing on, an SLO evaluation, and an explicit registration pass
for the families only reachable through failure and hedging paths.  A
renamed, dropped, or newly added family shows up as a text diff, so
dashboards and alert rules never silently break.

Regenerate after intentional changes::

    PYTHONPATH=src python -m repro.obs.catalog > docs/metrics_catalog.txt

Verify (what CI runs)::

    PYTHONPATH=src python -m repro.obs.catalog --check
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import List

#: Repo-relative location of the committed catalog.
CATALOG_PATH = Path("docs") / "metrics_catalog.txt"


def _register_rare(metrics) -> None:
    """Pre-register families the reference run cannot reach.

    Failure counters need a fault injection, hedge counters need a
    replica federation mid-overload, and re-route counters need a
    calibration-epoch bump to land mid-fragment; registering the
    instruments (at value zero) is enough for the catalog, which
    records families and label keys, never values.
    """
    metrics.counter("ii_query_failures_total")
    metrics.counter("ii_query_retries_total")
    metrics.counter("hedge_fired_total", server="S1")
    metrics.counter("hedge_suppressed_total", server="S1")
    metrics.counter("hedge_backup_wins_total", server="S1")
    metrics.counter("reroute_fired_total", server="S1")
    metrics.counter("reroute_declined_total", reason="no-replica")
    metrics.counter("mw_reroute_cancelled_total", server="S1")
    metrics.histogram("mw_reroute_wasted_ms")
    metrics.counter("admission_shed_total", klass="batch", reason="no-tokens")
    metrics.counter("slo_alerts_total", klass="batch", window="fast")
    metrics.counter("trace_spans_dropped_total")


def catalog_lines() -> List[str]:
    """The catalog: one ``kind name{label,keys}`` line per family.

    Pure function of the codebase — the reference exercise is fully
    seeded and the output carries no metric *values*, so it only
    changes when instrumentation changes.
    """
    import repro.obs as obs
    from ..harness.loadgen import run_loadgen
    from .slo import SLOMonitor, policy_for_class

    sink = obs.configure(metrics=True, tracing=True, log_level=None)
    try:
        result = run_loadgen(rate_qps=80.0, duration_ms=1500.0, seed=7)
        monitor = SLOMonitor(
            [policy_for_class(spec) for spec in result.classes]
        )
        monitor.ingest(result.handles)
        monitor.report(result.makespan_ms).emit_metrics(sink.metrics)
        _register_rare(sink.metrics)

        families = set()
        for kind, items in (
            ("counter", sink.metrics.counter_items()),
            ("gauge", sink.metrics.gauge_items()),
            ("histogram", sink.metrics.histogram_items()),
        ):
            for (name, labels), _ in items:
                keys = ",".join(k for k, _ in labels)
                families.add(f"{kind} {name}" + (f"{{{keys}}}" if keys else ""))
        return sorted(families)
    finally:
        obs.disable()


def check(path: Path = CATALOG_PATH) -> List[str]:
    """Differences between the live catalog and the committed file."""
    expected = path.read_text().splitlines()
    actual = catalog_lines()
    problems: List[str] = []
    for line in sorted(set(actual) - set(expected)):
        problems.append(f"uncatalogued metric family: {line}")
    for line in sorted(set(expected) - set(actual)):
        problems.append(f"catalogued family no longer emitted: {line}")
    if not problems and expected != actual:
        problems.append("catalog file is unsorted or has duplicates")
    return problems


def main(argv: List[str]) -> int:
    if "--check" in argv:
        problems = check()
        if problems:
            for problem in problems:
                print(problem, file=sys.stderr)
            print(
                "metric catalog drift detected; regenerate with "
                "`PYTHONPATH=src python -m repro.obs.catalog > "
                f"{CATALOG_PATH}`",
                file=sys.stderr,
            )
            return 1
        print(f"metric catalog matches {CATALOG_PATH}")
        return 0
    print("\n".join(catalog_lines()))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main(sys.argv[1:]))
