"""Command-line interface.

::

    python -m repro demo                     # guided quickstart
    python -m repro experiment figure10      # regenerate a paper figure
    python -m repro experiment all --markdown   # ... and EXPERIMENTS.md's tables
    python -m repro query "SELECT ..."       # one federated query
    python -m repro explain "SELECT ..." --analyze   # EXPLAIN ANALYZE
    python -m repro status --queries 20      # QCC state after a workload
    python -m repro trace "SELECT ..." --format chrome   # Perfetto trace
    python -m repro metrics --format prom    # Prometheus exposition text
    python -m repro timeline --csv out       # availability/calibration sweep
    python -m repro chaos --seed 42 --runs 25   # deterministic chaos sweep
    python -m repro loadgen --arrival poisson --qps 60   # open-loop load

Experiments accept ``--scale {test,bench,paper}`` (paper scale loads
100k-row tables; expect minutes, not seconds).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from . import obs
from .harness import (
    Evaluation,
    build_federation,
    calibrated_pass,
    run_timeline,
)
from .harness.report import replace_marked_blocks
from .obs.export import chrome_trace_json, render_prometheus
from .obs.profile import (
    disable_profiling,
    enable_profiling,
    render_analyzed_plan,
)
from .sqlengine import REFERENCE_PROFILE
from .sqlengine.cost import StatsContext
from .sqlengine.physical import CostEstimator, stats_context_for_plan
from .workload import BENCH_SCALE, PAPER_SCALE, TEST_SCALE, build_workload

_SCALES = {"test": TEST_SCALE, "bench": BENCH_SCALE, "paper": PAPER_SCALE}

#: Paper artefacts ``repro experiment`` regenerates: Evaluation methods.
_EXPERIMENTS = ("figure9", "table2", "figure10", "figure11", "regret", "residual")


def _parse_load(values: List[str]):
    loads = {}
    for item in values:
        server, _, level = item.partition("=")
        if not level:
            raise argparse.ArgumentTypeError(
                f"--load expects SERVER=LEVEL, got {item!r}"
            )
        loads[server] = float(level)
    return loads


def _add_federation_args(
    parser: argparse.ArgumentParser, load: bool = True
) -> None:
    """``--scale`` / ``--load`` of every command that builds one
    federation and submits to it (see :func:`_federation`)."""
    parser.add_argument(
        "--scale", choices=_SCALES, default="test", help="data scale"
    )
    if load:
        parser.add_argument(
            "--load",
            action="append",
            default=[],
            metavar="SERVER=LEVEL",
            help="set a server's load level, e.g. --load S3=0.8 (repeatable)",
        )


def _federation(args):
    """The federation a command's ``_add_federation_args`` describe."""
    deployment = build_federation(scale=_SCALES[args.scale])
    deployment.set_load(_parse_load(getattr(args, "load", [])))
    return deployment


def _add_load_stream_args(parser: argparse.ArgumentParser) -> None:
    """Arrival-stream knobs and trace exports shared by ``repro
    loadgen`` and ``repro slo``."""
    parser.add_argument(
        "--arrival",
        choices=("poisson", "bursty"),
        default="poisson",
        help="arrival process (default: poisson)",
    )
    parser.add_argument(
        "--qps", type=float, default=40.0, help="offered load, queries/s"
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=4_000.0,
        metavar="MS",
        help="submission window in virtual milliseconds",
    )
    parser.add_argument(
        "--classes",
        metavar="SPEC",
        default=None,
        help=(
            "priority classes as NAME=WEIGHT:BUDGET_MS:RATE_QPS[:BURST],"
            "... (rank follows position; empty field = unlimited; "
            "default: gold/silver/batch)"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="traffic seed"
    )
    parser.add_argument(
        "--scale",
        choices=sorted(_SCALES),
        default="test",
        help="workload scale (default: test)",
    )
    parser.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "enable hedged fragment dispatch (static hedge delay in "
            "virtual ms; per-fragment p95 takes over with history; "
            "default: disabled)"
        ),
    )
    parser.add_argument(
        "--reroute-batch",
        type=int,
        default=None,
        metavar="ROWS",
        help=(
            "enable mid-query batch re-routing (transfer batch size in "
            "rows; default: disabled)"
        ),
    )
    parser.add_argument(
        "--flight",
        metavar="PATH",
        default=None,
        help=(
            "trace the run and write the flight-recorder JSON (span "
            "trees, exact latency decompositions, under `slo` the SLO "
            "verdicts) to PATH"
        ),
    )
    parser.add_argument(
        "--chrome",
        metavar="PATH",
        default=None,
        help=(
            "trace the run and write Chrome trace-event JSON (one "
            "process per query, queue-wait/service slices in per-server "
            "lanes) to PATH for Perfetto / chrome://tracing"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Load and Network Aware Query Routing for "
            "Information Integration' (ICDE 2005)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="guided quickstart demo")
    _add_federation_args(demo, load=False)

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS + ("all",)))
    experiment.add_argument(
        "--scale", choices=_SCALES, default="bench", help="data scale"
    )
    experiment.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured result as JSON",
    )
    experiment.add_argument(
        "--markdown",
        metavar="PATH",
        nargs="?",
        const="EXPERIMENTS.md",
        help="also rewrite the results' marked blocks of PATH (EXPERIMENTS.md)",
    )

    query = sub.add_parser("query", help="run one federated query")
    query.add_argument("sql", help="federated SELECT over the sample schema")
    _add_federation_args(query)
    query.add_argument(
        "--explain",
        action="store_true",
        help="show ranked global plans without executing",
    )

    explain = sub.add_parser(
        "explain",
        help=(
            "show the chosen global plan; --analyze executes it with "
            "per-operator profiling (EXPLAIN ANALYZE)"
        ),
    )
    explain.add_argument(
        "sql", help="federated SELECT over the sample schema"
    )
    _add_federation_args(explain)
    explain.add_argument(
        "--analyze",
        action="store_true",
        help="execute the query and annotate each operator with actuals",
    )

    status = sub.add_parser(
        "status", help="run a workload and dump QCC's learned state"
    )
    _add_federation_args(status)
    status.add_argument(
        "--queries", type=int, default=16, help="workload size"
    )

    trace = sub.add_parser(
        "trace", help="run one query with tracing on and dump the JSON trace"
    )
    trace.add_argument("sql", help="federated SELECT over the sample schema")
    _add_federation_args(trace)
    trace.add_argument(
        "--format",
        choices=("json", "chrome"),
        default="json",
        help=(
            "output format: span-tree JSON or Chrome trace-event JSON "
            "(loadable in Perfetto / chrome://tracing)"
        ),
    )
    trace.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the trace to PATH instead of stdout",
    )

    metrics = sub.add_parser(
        "metrics", help="run a workload and dump the metrics snapshot"
    )
    _add_federation_args(metrics)
    metrics.add_argument(
        "--queries", type=int, default=16, help="workload size"
    )
    metrics.add_argument(
        "--format",
        choices=("text", "prom", "json"),
        default="text",
        help=(
            "output format: human-readable text, Prometheus exposition "
            "text, or a JSON snapshot"
        ),
    )
    metrics.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write the output to PATH instead of stdout",
    )

    timeline = sub.add_parser(
        "timeline",
        help=(
            "run a Figure-9-style load/outage sweep and dump the "
            "per-server calibration & availability timeline"
        ),
    )
    timeline.add_argument(
        "--scale", choices=_SCALES, default="test", help="data scale"
    )
    timeline.add_argument(
        "--csv",
        metavar="PREFIX",
        default=None,
        help="also write PREFIX_samples.csv and PREFIX_events.csv",
    )
    timeline.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the structured result as JSON",
    )
    chaos = sub.add_parser(
        "chaos",
        help=(
            "run seed-reproducible fault-injection scenarios and check "
            "federation invariants (see docs/testing.md)"
        ),
    )
    chaos.add_argument(
        "--seed", type=int, default=42, help="root scenario seed"
    )
    chaos.add_argument(
        "--runs", type=int, default=25, help="number of scenarios"
    )
    chaos.add_argument(
        "--max-shrink",
        type=int,
        default=200,
        metavar="N",
        help="candidate re-executions the shrinker may spend per failure",
    )
    chaos.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="write one scenario-verdict JSON line per run to PATH",
    )
    chaos.add_argument(
        "--repro",
        metavar="SPEC_JSON",
        default=None,
        help=(
            "replay one exact scenario from its canonical JSON (as "
            "printed by a failing run's repro command); --runs is ignored"
        ),
    )
    chaos.add_argument(
        "--checkers",
        action="append",
        default=[],
        metavar="NAME",
        help="run only this invariant checker (repeatable; default: all)",
    )
    chaos.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without minimising their schedules",
    )
    chaos.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "enable hedged fragment dispatch in concurrent scenarios "
            "(static hedge delay in virtual ms; default: disabled)"
        ),
    )
    chaos.add_argument(
        "--reroute-batch",
        type=int,
        default=None,
        metavar="ROWS",
        help=(
            "enable mid-query batch re-routing in concurrent scenarios "
            "(transfer batch size in rows; default: disabled)"
        ),
    )
    chaos.add_argument(
        "--reroute-rate",
        type=float,
        default=0.0,
        metavar="P",
        help=(
            "probability a generated concurrent scenario samples the "
            "re-route dimension (own RNG stream; default: 0.0 so sweep "
            "bytes are unchanged)"
        ),
    )
    loadgen = sub.add_parser(
        "loadgen",
        help=(
            "fire a seeded open-loop arrival stream at the concurrent "
            "runtime and report per-class latency and shed accounting"
        ),
    )
    _add_load_stream_args(loadgen)
    loadgen.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help=(
            "write the run header and one verdict JSON line per query "
            "to PATH (byte-deterministic for fixed parameters)"
        ),
    )
    slo = sub.add_parser(
        "slo",
        help=(
            "run a loadgen stream under tracing and evaluate per-class "
            "SLO compliance with multi-window burn-rate alerts"
        ),
    )
    _add_load_stream_args(slo)
    slo.add_argument(
        "--objective",
        type=float,
        default=None,
        metavar="FRAC",
        help=(
            "fraction of each class's queries that must meet its target "
            "(default: 0.95)"
        ),
    )
    slo.add_argument(
        "--target-default",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "latency target for classes with no admission budget "
            "(default: 1000ms; budgeted classes use their budget)"
        ),
    )
    slo.add_argument(
        "--step",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "burn-rate checkpoint grid step (default: a quarter of the "
            "smallest short window)"
        ),
    )

    return parser


def _write_or_print(payload: str, path: Optional[str], what: str) -> None:
    if path:
        with open(path, "w") as handle:
            handle.write(payload + "\n")
        print(f"{what} written to {path}")
    else:
        print(payload)


def _print_ranked_plans(deployment, sql: str) -> int:
    _, plans = deployment.integrator.compile(sql)
    print("Ranked global plans (calibrated cost):")
    for plan in plans:
        print(f"  {plan.describe()}")
    return 0


def _run_sample_workload(deployment, queries: int) -> None:
    """The first *queries* of a mixed QT1-QT4 workload, then one
    recalibration so QCC's reported state reflects them."""
    workload = build_workload(instances_per_type=max(1, queries // 4))
    calibrated_pass(deployment, workload[:queries])


def _cmd_demo(args) -> int:
    print(f"Building federation at {args.scale} scale...")
    deployment = _federation(args)
    print("Running a 12-query mixed workload (QT1-QT4)...")
    _run_sample_workload(deployment, 12)
    patroller = deployment.integrator.patroller
    print(f"\nMean response: {patroller.mean_response_ms():.1f} ms")
    print("Per-type means:")
    for template in ("QT1", "QT2", "QT3", "QT4"):
        print(f"  {template}: {patroller.mean_response_ms(template):8.1f} ms")
    print("\nQCC status:")
    for key, value in deployment.qcc.status().items():
        print(f"  {key}: {value}")
    print(
        "\nNext: `python -m repro experiment figure10` regenerates the "
        "paper's headline result."
    )
    return 0


def _cmd_experiment(args) -> int:
    print(f"Running {args.name} at {args.scale} scale (this executes the "
          "full phase sweep)...\n")
    names = _EXPERIMENTS if args.name == "all" else (args.name,)
    evaluation = Evaluation(scale=_SCALES[args.scale])
    results = {name: getattr(evaluation, name)() for name in names}
    print("\n\n".join(result.render() for result in results.values()))
    if args.json:
        payload = {name: result.to_dict() for name, result in results.items()}
        with open(args.json, "w") as handle:
            json.dump(payload.get(args.name, payload), handle, indent=2)
        print(f"\nStructured result written to {args.json}")
    if args.markdown:
        blocks = {name: result.markdown() for name, result in results.items()}
        path = Path(args.markdown)
        text = replace_marked_blocks(path.read_text("utf-8"), blocks)
        path.write_text(text, "utf-8")
        print(f"\nBlocks {', '.join(names)} of {args.markdown} regenerated")
    return 0


def _cmd_query(args) -> int:
    deployment = _federation(args)
    if args.explain:
        return _print_ranked_plans(deployment, args.sql)
    result = deployment.integrator.submit(args.sql)
    print(f"servers: {sorted(result.servers)}")
    print(
        f"response: {result.response_ms:.1f} ms "
        f"(remote {result.remote_ms:.1f} + merge {result.merge_ms:.1f})"
    )
    print(f"rows ({result.row_count}):")
    for row in result.rows[:20]:
        print(f"  {row}")
    if result.row_count > 20:
        print(f"  ... {result.row_count - 20} more")
    return 0


def _cmd_explain(args) -> int:
    deployment = _federation(args)
    if not args.analyze:
        return _print_ranked_plans(deployment, args.sql)
    enable_profiling()
    try:
        result = deployment.integrator.submit(args.sql)
    finally:
        disable_profiling()
    profile = result.profile
    specs = {spec.name: spec for spec in deployment.specs}
    print(f"Global plan: {result.describe()}")
    fragment_plans, merge_plan = result.executed_plans()
    for fragment_id, fragment, plan in fragment_plans:
        estimator = CostEstimator(
            profile=specs[fragment.server].profile(),
            stats=stats_context_for_plan(plan),
        )
        print(f"\nFragment {fragment_id} @ {fragment.server}:")
        print(
            render_analyzed_plan(
                plan,
                profile,
                estimate=lambda n, e=estimator: n.estimate_cost(e),
            )
        )
    merge_estimator = CostEstimator(profile=REFERENCE_PROFILE, stats=StatsContext({}))
    print("\nII merge plan:")
    print(
        render_analyzed_plan(
            merge_plan,
            profile,
            estimate=lambda n: n.estimate_cost(merge_estimator),
        )
    )
    print(
        f"\nresponse: {result.response_ms:.1f} ms "
        f"(remote {result.remote_ms:.1f} + merge {result.merge_ms:.1f}), "
        f"rows={result.row_count}"
    )
    return 0


def _cmd_status(args) -> int:
    deployment = _federation(args)
    _run_sample_workload(deployment, args.queries)
    for key, value in deployment.qcc.status().items():
        print(f"{key}: {value}")
    return 0


def _cmd_trace(args) -> int:
    obs.configure(log_level=None)
    result = _federation(args).integrator.submit(args.sql)
    if args.format == "chrome":
        payload = chrome_trace_json([result.trace])
    else:
        payload = result.trace.to_json()
    _write_or_print(payload, args.out, "Trace")
    return 0


def _cmd_metrics(args) -> int:
    sink = obs.configure(log_level=None)
    deployment = _federation(args)
    _run_sample_workload(deployment, args.queries)
    cache = deployment.integrator.plan_cache
    statements = {
        name: server.database.statement_cache_stats()
        for name, server in deployment.servers.items()
    }
    fmt = args.format
    if fmt == "json":
        snapshot = sink.metrics.snapshot()
        if cache is not None:
            snapshot["plan_cache"] = cache.stats()
        snapshot["statement_cache"] = statements
        payload = json.dumps(snapshot, indent=2)
    elif fmt == "prom":
        payload = render_prometheus(sink.metrics)
    else:
        lines = [sink.metrics.render()]
        if cache is not None:
            lines.append("\nplan cache:")
            for key, value in cache.stats().items():
                formatted = (
                    f"{value:.3f}" if isinstance(value, float) else value
                )
                lines.append(f"  {key}: {formatted}")
            for name, stats in statements.items():
                counters = " ".join(f"{k}={v}" for k, v in stats.items())
                lines.append(f"  statements@{name}: {counters}")
        payload = "\n".join(lines)
    _write_or_print(payload, args.out, "Metrics")
    return 0


def _cmd_timeline(args) -> int:
    print(f"Running the timeline sweep at {args.scale} scale...\n")
    result = run_timeline(scale=_SCALES[args.scale])
    print(result.render())
    if args.csv:
        samples_path = f"{args.csv}_samples.csv"
        events_path = f"{args.csv}_events.csv"
        with open(samples_path, "w") as handle:
            handle.write(result.samples_csv())
        with open(events_path, "w") as handle:
            handle.write(result.events_csv())
        print(f"\nCSV written to {samples_path} and {events_path}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"Structured result written to {args.json}")
    return 0


def _cmd_chaos(args) -> int:
    from .chaos import (
        ScenarioSpec,
        forbid_global_random,
        generate_scenarios,
        repro_command,
        run_checkers,
        run_scenario,
        shrink_schedule,
        violations,
    )
    from .chaos.checkers import CASES
    from .obs.export import JsonlSink

    # Reproducibility is the whole point: refuse to run if the simulator
    # grew an implicit global-random dependence.
    forbid_global_random()

    checker_names = args.checkers or None
    if args.repro:
        specs = [ScenarioSpec.from_json(args.repro)]
    else:
        specs = generate_scenarios(
            args.seed, args.runs, reroute_rate=args.reroute_rate
        )
    if args.hedge_after is not None or args.reroute_batch is not None:
        # Hedging/re-routing apply to concurrent scenarios only: the
        # sequential drive has no event scheduler to race a backup on
        # or to interrupt a fragment mid-flight.
        from dataclasses import replace as _replace

        overrides = {}
        if args.hedge_after is not None:
            overrides["hedge_after_ms"] = args.hedge_after
        if args.reroute_batch is not None:
            overrides["reroute_batch_rows"] = args.reroute_batch
        specs = [
            _replace(spec, **overrides)
            if spec.arrival is not None
            else spec
            for spec in specs
        ]

    sink = None
    if args.jsonl:
        # Truncate: the artifact must be a pure function of the seed so
        # CI can diff two invocations byte-for-byte.
        open(args.jsonl, "w").close()
        sink = JsonlSink(args.jsonl)

    failures = 0
    counts: Counter = Counter()
    cases: Counter = Counter()
    for spec in specs:
        run = run_scenario(spec)
        counts.update(run.counts())
        verdicts = run_checkers(run, names=checker_names)
        cases.update({name: name in CASES and CASES[name](run) for name in verdicts})
        found = violations(verdicts)
        status = "FAIL" if found else "ok"
        arrival = (
            spec.arrival.describe() if spec.arrival is not None
            else "sequential"
        )
        print(
            f"[{status}] scenario {spec.index} seed={spec.seed} "
            f"{spec.topology} arrival={arrival} "
            f"queries={len(spec.queries)} "
            f"faults={len(spec.faults)} completed={run.completed} "
            f"failed={run.failed} shed={run.shed}"
        )
        if sink is not None:
            sink.emit(
                "chaos-scenario",
                {
                    "seed": spec.seed,
                    "index": spec.index,
                    "topology": spec.topology,
                    "arrival": (
                        None if spec.arrival is None
                        else spec.arrival.to_dict()
                    ),
                    "queries": len(spec.queries),
                    "faults": [event.describe() for event in spec.faults],
                    "completed": run.completed,
                    "failed": run.failed,
                    "shed": run.shed,
                    "violations": {
                        name: found_list
                        for name, found_list in sorted(verdicts.items())
                    },
                    "verdict": status,
                    "spec": spec.to_dict(),
                },
            )
        if not found:
            continue
        failures += 1
        for line in found:
            print(f"    {line}")
        if args.no_shrink:
            print(f"    reproduce: {repro_command(spec)}")
            continue

        def probe(candidate: ScenarioSpec):
            candidate_run = run_scenario(candidate)
            candidate_found = violations(
                run_checkers(candidate_run, names=checker_names)
            )
            return candidate_found[0] if candidate_found else None

        shrunk = shrink_schedule(
            spec, probe, max_attempts=args.max_shrink
        )
        print(
            f"    shrunk to {len(shrunk.spec.faults)} fault(s), "
            f"{len(shrunk.spec.queries)} query(ies) in "
            f"{shrunk.attempts} attempts: {shrunk.message}"
        )
        print(f"    reproduce: {shrunk.command}")

    print(
        f"\n{len(specs)} scenario(s), {failures} with invariant "
        f"violations"
    )
    print("Checker cases: " + ", ".join(f"{name} {n}" for name, n in sorted(cases.items())))
    print("Mechanisms: " + ", ".join(f"{name} {n}" for name, n in sorted(counts.items())))
    if sink is not None:
        print(f"Verdicts written to {args.jsonl}")
    return 1 if failures else 0


def _run_load_stream(args, traced: bool):
    """Shared loadgen driver for ``repro loadgen`` / ``repro slo``."""
    from .chaos import forbid_global_random
    from .fed.admission import DEFAULT_CLASSES, parse_class_spec
    from .harness.loadgen import run_loadgen

    forbid_global_random()
    if traced:
        obs.configure(metrics=True, tracing=True, log_level=None)
    classes = (
        parse_class_spec(args.classes) if args.classes else DEFAULT_CLASSES
    )
    result = run_loadgen(
        arrival=args.arrival,
        rate_qps=args.qps,
        duration_ms=args.duration,
        classes=classes,
        seed=args.seed,
        scale=_SCALES[args.scale],
        hedge_after_ms=args.hedge_after,
        reroute_batch_rows=args.reroute_batch,
    )
    return result, classes


def _finish_load_stream(result, args, slo_report=None) -> int:
    """Write the trace exports *args* ask for; returns the exit status."""
    if args.flight:
        with open(args.flight, "w") as handle:
            handle.write(result.flight_json(slo_report) + "\n")
        print(f"Flight record written to {args.flight}")
    if args.chrome:
        traces = [h.trace for h in result.handles if h.trace is not None]
        with open(args.chrome, "w") as handle:
            handle.write(chrome_trace_json(traces) + "\n")
        print(f"Chrome trace written to {args.chrome}")
    return 1 if result.shed_violations() or result.failures else 0


def _cmd_loadgen(args) -> int:
    result, _ = _run_load_stream(
        args, traced=bool(args.flight or args.chrome)
    )
    print(result.render())
    if args.jsonl:
        with open(args.jsonl, "w") as handle:
            for line in result.verdict_lines():
                handle.write(line + "\n")
        print(f"Verdicts written to {args.jsonl}")
    return _finish_load_stream(result, args)


def _cmd_slo(args) -> int:
    from .obs.slo import (
        DEFAULT_OBJECTIVE,
        DEFAULT_TARGET_MS,
        SLOMonitor,
        policy_for_class,
    )

    result, classes = _run_load_stream(args, traced=True)
    monitor = SLOMonitor(
        [
            policy_for_class(
                spec,
                objective=(
                    args.objective
                    if args.objective is not None
                    else DEFAULT_OBJECTIVE
                ),
                default_target_ms=(
                    args.target_default
                    if args.target_default is not None
                    else DEFAULT_TARGET_MS
                ),
            )
            for spec in classes
        ]
    )
    monitor.ingest(result.handles)
    report = monitor.report(result.makespan_ms, step_ms=args.step)
    report.emit_metrics(obs.get_obs().metrics)
    print(result.render())
    print()
    print(
        f"SLO verdicts (end={report.end_ms:.0f}ms "
        f"step={report.step_ms:g}ms):"
    )
    print(report.render())
    return _finish_load_stream(result, args, report)


_COMMANDS = {
    "demo": _cmd_demo,
    "experiment": _cmd_experiment,
    "query": _cmd_query,
    "explain": _cmd_explain,
    "status": _cmd_status,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "timeline": _cmd_timeline,
    "chaos": _cmd_chaos,
    "loadgen": _cmd_loadgen,
    "slo": _cmd_slo,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
