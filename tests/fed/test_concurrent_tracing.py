"""Causal span trees from the concurrent runtime.

Satellite guarantees under test: span trees are well-nested and
per-trace disjoint under concurrency, queue_wait + service equals the
scheduler's sojourn bit-for-bit, every completed query's decomposition
recombines to exactly its recorded response time,
and hedge races leave the winner's tags plus the loser's cancelled
slice on the winning trace and in the Chrome export.
"""

import json
from collections import Counter

import pytest

import repro.obs as obs
from repro.core import Calibration
from repro.fed import (
    ConcurrentRuntime,
    InformationIntegrator,
    PriorityClass,
    decompose,
)
from repro.harness import build_federation, build_replica_federation
from repro.harness.loadgen import run_loadgen
from repro.obs import decompose_trace
from repro.obs.export import chrome_trace_events
from repro.sim import OutageSchedule
from repro.workload import TEST_SCALE, build_workload
from repro.workload.queries import QT1, QT2, QT3, QT4, QT5
from repro.wrappers import MetaWrapper


@pytest.fixture(params=["ps"])
def traced_overload(request, sample_databases):
    """One 2x-overload traced run (processor sharing, the one queue
    discipline)."""
    obs.configure(metrics=True, tracing=True, log_level=None)
    try:
        yield run_loadgen(
            rate_qps=80.0,
            duration_ms=1_500.0,
            seed=11,
            prebuilt_databases=sample_databases,
        )
    finally:
        obs.disable()


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


class TestSpanTreeIntegrity:
    def test_every_outcome_gets_a_trace_with_one_root(self, traced_overload):
        assert traced_overload.handles
        for handle in traced_overload.handles:
            assert handle.trace is not None, handle.status
            roots = [s for s in handle.trace.spans if s.name == "query"]
            assert len(roots) == 1
            assert roots[0].attributes["status"] == handle.status

    def test_spans_are_closed_and_well_nested(self, traced_overload):
        for handle in traced_overload.handles:
            for root in handle.trace.spans:
                for span in _walk(root):
                    assert span.end_ms is not None, span.name
                    assert span.end_ms >= span.start_ms, span.name
                    for child in span.children:
                        assert child.start_ms >= span.start_ms, child.name
                        assert child.end_ms <= span.end_ms, child.name

    def test_traces_share_no_span_objects(self, traced_overload):
        seen = {}
        for handle in traced_overload.handles:
            for root in handle.trace.spans:
                for span in _walk(root):
                    owner = seen.setdefault(id(span), handle.index)
                    assert owner == handle.index, (
                        "span object shared across traces"
                    )

    def test_queue_wait_plus_service_is_sojourn_bit_for_bit(
        self, traced_overload
    ):
        checked = 0
        for handle in traced_overload.handles:
            for dispatch in handle.trace.find("dispatch"):
                if "sojourn_ms" not in dispatch.attributes:
                    continue
                waits = [
                    c for c in dispatch.children if c.name == "queue_wait"
                ]
                services = [
                    c
                    for c in dispatch.children
                    if c.name == "service"
                    and not c.attributes.get("cancelled")
                ]
                assert len(waits) == 1 and len(services) == 1
                assert (
                    waits[0].attributes["wait_ms"]
                    + services[0].attributes["service_ms"]
                    == dispatch.attributes["sojourn_ms"]
                )
                # And the span boundaries tile the sojourn interval.
                assert waits[0].end_ms == services[0].start_ms
                checked += 1
        assert checked >= len(traced_overload.completed)

    def test_decomposition_recombines_to_response_exactly(
        self, traced_overload
    ):
        assert traced_overload.completed
        for handle in traced_overload.handles:
            out = decompose_trace(handle.trace)
            if handle.status != "completed":
                assert out["status"] == handle.status
                continue
            assert out["exact"] is True
            assert out["total_ms"] == handle.result.response_ms
            assert out["response_ms"] == handle.result.response_ms

    def test_shed_queries_carry_admission_evidence(self, traced_overload):
        assert traced_overload.sheds
        for handle in traced_overload.handles:
            if handle.status != "shed":
                continue
            (admission,) = handle.trace.find("admission")
            assert admission.attributes["admitted"] is False
            assert admission.attributes["reason"] in (
                "no-tokens",
                "over-budget",
            )
            assert "tokens_before" in admission.attributes


@pytest.fixture(scope="module")
def hedged_run():
    """A traced replica-federation run hot enough to fire hedges."""
    deployment = build_replica_federation(scale=TEST_SCALE, seed=7)
    obs.configure(metrics=True, tracing=True, log_level=None)
    try:
        runtime = ConcurrentRuntime(
            deployment.integrator, hedge_after_ms=1.0
        )
        handles = [
            runtime.submit_at(index * 1.0, instance.sql, klass="gold")
            for index, instance in enumerate(
                build_workload(instances_per_type=2)
            )
        ]
        runtime.run()
        yield runtime, handles
    finally:
        obs.disable()


class TestHedgeTracing:
    def test_winning_trace_carries_hedge_outcome_tags(self, hedged_run):
        runtime, handles = hedged_run
        assert runtime.hedging.fired > 0
        tagged = [
            d
            for h in handles
            for d in h.trace.find("dispatch")
            if d.attributes.get("hedge_fired")
        ]
        assert len(tagged) == runtime.hedging.fired
        backup_wins = 0
        for dispatch in tagged:
            assert dispatch.attributes["hedge_winner"] in (
                "primary",
                "backup",
            )
            assert dispatch.attributes["hedge_wasted_ms"] >= 0.0
            if dispatch.attributes["backup_wins"]:
                backup_wins += 1
        assert backup_wins == runtime.hedging.backup_wins

    def test_hedge_backup_span_nests_the_race(self, hedged_run):
        runtime, handles = hedged_run
        spans = [
            s for h in handles for s in h.trace.find("hedge_backup")
        ]
        assert len(spans) == runtime.hedging.fired
        for span in spans:
            assert span.attributes["winner"] in ("primary", "backup")
            assert span.attributes["server"] != span.attributes["primary"]
            assert span.attributes["fired_ms"] == span.start_ms

    def test_loser_survives_as_cancelled_slice(self, hedged_run):
        runtime, handles = hedged_run
        cancelled = [
            s
            for h in handles
            for name in ("queue_wait", "service")
            for s in h.trace.find(name)
            if s.attributes.get("cancelled")
        ]
        # Every settled race cancels its loser's queue lifecycle (the
        # loser may have been waiting, serving, or both).
        assert cancelled
        for span in cancelled:
            assert span.end_ms is not None

    def test_chrome_export_renders_cancelled_slices_grey(self, hedged_run):
        _, handles = hedged_run
        trace_file = chrome_trace_events([h.trace for h in handles])
        cancelled = [
            e
            for e in trace_file["traceEvents"]
            if e.get("ph") == "X" and "(cancelled)" in e.get("name", "")
        ]
        assert cancelled
        for event in cancelled:
            assert event["cname"] == "grey"
        # The export stays plain-JSON serialisable.
        json.dumps(trace_file)

    def test_decomposition_stays_exact_under_hedging(self, hedged_run):
        _, handles = hedged_run
        for handle in handles:
            assert handle.result is not None
            out = decompose_trace(handle.trace)
            assert out["exact"] is True
            assert out["total_ms"] == handle.result.response_ms


class TestOverlapAttribution:
    """Spans and events a query causes after yielding to another query
    land in its own trace, not in whichever trace started last."""

    def test_retry_compile_spans_stay_with_the_retrying_query(
        self, sample_databases
    ):
        # S3 wins at base load, is up for the first compile (t=0) and
        # down at the first dispatch (t=2): the first query fails over
        # and recompiles at t=252, while a second query that started at
        # t=251 is still inside its own compile delay.
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability={"S3": OutageSchedule([(1.0, 200.0)])},
        )
        obs.configure(metrics=False, tracing=True, log_level=None)
        try:
            runtime = ConcurrentRuntime(deployment.integrator)
            retrying = runtime.submit_at(0.0, QT3.instance(0).sql)
            bystander = runtime.submit_at(251.0, QT1.instance(0).sql)
            runtime.run()
        finally:
            obs.disable()
        assert retrying.result.retries == 1
        assert bystander.result.retries == 0

        first, second = retrying.trace.find("compile")
        assert second.attributes["attempt"] == 1
        assert second.start_ms == 252.0
        assert [s.name for s in second.find("decompose")] == ["decompose"]
        assert second.find("plan_enumeration")
        assert second.find("plan_cache")
        # The bystander compiled once, and only its own statement.
        (compile_span,) = bystander.trace.find("compile")
        for name in ("decompose", "plan_enumeration"):
            (span,) = bystander.trace.find(name)
            assert span in compile_span.children
        (decompose,) = bystander.trace.find("decompose")
        assert decompose.attributes["sql"] == bystander.sql
        assert not bystander.trace.find("retry")


class _Scripted(Calibration):
    """A calibration whose every answer depends on its arguments alone,
    never on what other queries did — so "the same query, alone, at the
    same instant, with the same server state" is well defined."""

    FACTORS = {"S1": 1.0, "R1": 1.02, "S2": 1.0, "R2": 1.03}

    def is_available(self, server, t_ms):
        # R2 is believed down for the first 100 ms.
        return server != "R2" or t_ms >= 100.0

    def calibrate(self, server, fragment_signature, cost):
        return cost.scaled(self.FACTORS[server])

    def substitute(self, option, siblings, t_ms):
        # Always send the fragment to its HRW home.
        return self.ranked_cluster(option, siblings)[0]


#: What the meta-wrapper writes into a query's trace, and the attributes
#: of each event that do not depend on who else is queueing.
_MW_EVENTS = {
    "calibration_lookup": (
        "server", "fragment", "estimated_total", "calibrated_total"
    ),
    "server_skipped": ("server", "fragment", "reason"),
    "substitution": ("fragment", "from_server", "to_server"),
    "hedge_cancelled": ("fragment",),
}

#: Overlapping arrivals, all distinct texts (so no plan-cache hit hides
#: a compilation that the lone twin performs).
_ARRIVALS = [
    (0.0, QT1.instance(0)),
    (0.5, QT2.instance(0)),
    (1.5, QT5.instance(0)),
    (250.5, QT4.instance(0)),
    (251.0, QT3.instance(1)),
]


def _scripted_run(arrivals):
    """Run *arrivals* through a hedged runtime over a replica
    federation priced by :class:`_Scripted`; S2 is down from t=1 to
    t=200, after the first compilations and before their dispatch."""
    plain = build_replica_federation(
        scale=TEST_SCALE,
        calibration=Calibration(),
        availability={"S2": OutageSchedule([(1.0, 200.0)])},
    )
    integrator = InformationIntegrator(
        plain.registry,
        MetaWrapper(plain.meta_wrapper.wrappers, qcc=_Scripted()),
    )
    runtime = ConcurrentRuntime(integrator, hedge_after_ms=1.0)
    handles = [
        runtime.submit_at(t_ms, instance.sql, klass="gold")
        for t_ms, instance in arrivals
    ]
    runtime.run()
    return plain.registry, runtime, handles


def _mw_events(trace):
    events = Counter()
    for name, stable in _MW_EVENTS.items():
        for span in trace.find(name):
            events[
                (name,) + tuple(span.attributes[key] for key in stable)
            ] += 1
    return events


class TestMetaWrapperEventAttribution:
    """Property: what MW and the calibration say about a fragment lands
    in the trace of the query that fragment belongs to — by passing the
    trace, not by keeping an ambient "current" one pointed right."""

    @pytest.fixture(scope="class")
    def overlapped(self):
        obs.configure(metrics=False, tracing=True, log_level=None)
        try:
            yield _scripted_run(_ARRIVALS)
        finally:
            obs.disable()

    def test_the_run_exercises_every_event_kind(self, overlapped):
        _, runtime, handles = overlapped
        assert all(h.status == "completed" for h in handles)
        assert sum(h.result.retries for h in handles) >= 1
        assert runtime.hedging.fired >= 1
        seen = Counter()
        for handle in handles:
            for key, count in _mw_events(handle.trace).items():
                seen[key[0]] += count
        assert set(seen) == set(_MW_EVENTS)
        assert seen["hedge_cancelled"] == runtime.hedging.fired
        # Queries really did interleave: someone else's span starts
        # inside every query's lifetime.
        for handle in handles:
            (root,) = handle.trace.spans
            assert any(
                root.start_ms < other.trace.spans[0].start_ms < root.end_ms
                or other.trace.spans[0].start_ms
                < root.start_ms
                < other.trace.spans[0].end_ms
                for other in handles
                if other is not handle
            )

    def test_each_query_emits_what_it_emits_alone(self, overlapped):
        _, _, handles = overlapped
        for arrival, handle in zip(_ARRIVALS, handles):
            obs.configure(metrics=False, tracing=True, log_level=None)
            try:
                _, _, (alone,) = _scripted_run([arrival])
            finally:
                obs.disable()
            assert alone.result.retries == handle.result.retries
            assert _mw_events(handle.trace) == _mw_events(alone.trace), (
                handle.sql
            )

    def test_no_event_names_a_fragment_of_another_query(self, overlapped):
        registry, _, handles = overlapped
        for handle in handles:
            candidates = {
                fragment.fragment_id: set(fragment.candidate_servers)
                for fragment in decompose(handle.sql, registry).fragments
            }
            for name in _MW_EVENTS:
                for span in handle.trace.find(name):
                    attributes = span.attributes
                    assert attributes["fragment"] in candidates, (name, handle.sql)
                    servers = {
                        attributes[key]
                        for key in ("server", "from_server", "to_server")
                        if key in attributes
                    }
                    assert servers <= candidates[attributes["fragment"]]


class TestInFlightGauge:
    """``sched_in_flight`` is settled on every exit of a query, not only
    the completed one: a drained runtime always reads zero."""

    @pytest.mark.parametrize("last_outcome", ["shed", "failed"])
    def test_drained_runtime_reads_zero(self, sample_databases, last_outcome):
        # One token, refilled far too slowly for the second arrival;
        # every server down by the time the second query compiles.
        classes = (
            PriorityClass(
                "only",
                rank=0,
                rate_qps=0.001 if last_outcome == "shed" else 1000.0,
                burst=1.0,
            ),
        )
        outage = OutageSchedule([(500.0, 10_000.0)])
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability=(
                {} if last_outcome == "shed"
                else {name: outage for name in ("S1", "S2", "S3")}
            ),
        )
        sink = obs.configure(metrics=True, tracing=False, log_level=None)
        try:
            runtime = ConcurrentRuntime(deployment.integrator, classes=classes)
            sql = QT1.instance(0).sql
            first = runtime.submit_at(0.0, sql)
            last = runtime.submit_at(1_000.0, sql)
            runtime.run()
            in_flight = sink.metrics.gauge_value("sched_in_flight")
        finally:
            obs.disable()
        assert first.status == "completed"
        assert last.status == last_outcome
        assert runtime.scheduler.live_processes == 0
        assert in_flight == 0.0
