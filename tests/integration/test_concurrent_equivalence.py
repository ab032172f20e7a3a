"""Concurrent runtime vs sequential integrator: equivalence + inflation.

The event scheduler must be a pure generalisation of the sequential
runtime: a single query routed through :class:`ConcurrentRuntime` meets
no contention, so every observable — rows, response decomposition,
routing, calibrator feedback — must be *bit-identical* to
``integrator.submit`` on an identically seeded federation.  Only under
actual overlap may observed times inflate, and then the inflation must
feed the calibrator.
"""

import pytest

import repro.obs as obs
from repro.fed import (
    ConcurrentRuntime,
    DEFAULT_CLASSES,
    FederationError,
    PriorityClass,
    QueryStatus,
)
from repro.harness import build_federation
from repro.obs import decompose_trace
from repro.sim import OutageSchedule, ServerUnavailable, WindowedErrorInjector
from repro.workload import TEST_SCALE, build_workload
from repro.workload.queries import QT1, QT3
from tests.executions import noted_executions

# Concurrency is an II-side concern: the same physical data backs the
# sequential reference and the concurrent run.


#: Fault scenarios for the lone-query equivalence: every server up, or
#: the base-load winner (S3) up for the first compile at t=0 but down
#: from the first dispatch on, so the query fails over (retry + exclude).
SCENARIOS = {
    "all-up": {},
    "winner-down": {"outages": {"S3": [(1.0, 1e9)]}},
}

#: Two fragments with no join edge between them, both best at S3.
CROSS_JOIN = (
    "SELECT c.nation, o.priority FROM customer c, orders o "
    "WHERE c.acctbal > 9990 AND o.totalprice > 9990"
)

#: Ways for a lone query to fail: every dispatch errors until the retry
#: budget is spent, or every server is gone by the first retry's compile.
FAILURES = {
    "retries exhausted": {"erroring_from_ms": 1.0, "max_retries": 1},
    "nothing viable": {
        "outages": dict.fromkeys(("S1", "S2", "S3"), [(1.0, 1e9)])
    },
}


@pytest.fixture()
def make_deployment(sample_databases):
    def factory(outages=None, erroring_from_ms=None, max_retries=3):
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability={
                server: OutageSchedule(windows)
                for server, windows in (outages or {}).items()
            },
        )
        if erroring_from_ms is not None:
            # Up, so every compile sees it, but failing every execute.
            for server in deployment.servers.values():
                server.errors = WindowedErrorInjector(
                    [(erroring_from_ms, 1e9, 1.0)]
                )
        deployment.integrator.max_retries = max_retries
        noted_executions(deployment.meta_wrapper)
        return deployment

    return factory


def run_both(make_deployment, sql, faults=None, label=None, **runtime_kwargs):
    """One lone query through each driver of the lifecycle, on
    identically built federations: ``submit`` (uncontended) and a
    :class:`ConcurrentRuntime`.  Returns ``(deployment, outcome)`` per
    driver, the outcome being the result or the FederationError."""
    faults = faults or {}
    sequential = make_deployment(**faults)
    try:
        reference = sequential.integrator.submit(sql, label=label)
    except FederationError as exc:
        reference = exc
    concurrent = make_deployment(**faults)
    runtime = ConcurrentRuntime(concurrent.integrator, **runtime_kwargs)
    handle = runtime.submit_at(0.0, sql, klass="gold", label=label)
    runtime.run()
    return (sequential, reference), (concurrent, handle.result or handle.error)


def books(deployment):
    """Everything the lifecycle reports to, beyond the result itself."""
    qcc = deployment.qcc
    return {
        "noted": noted_executions(deployment.meta_wrapper),
        "patrol": deployment.integrator.patroller.records(),
        "availability": {
            server: list(health.outcomes)
            for server, health in qcc.availability._health.items()
        },
        "decisions": qcc.decision_log,
        "executions": qcc.execution_records,
        "epoch": deployment.integrator.calibration_epoch.value,
    }


def span_tree(span):
    """A span as comparable data, without what only a scheduler adds:
    the admission event, queue_wait/service children and the class."""
    attributes = {
        key: value
        for key, value in span.attributes.items()
        if key not in ("klass", "query_index")
    }
    children = [
        span_tree(child)
        for child in span.children
        if child.name not in ("admission", "queue_wait", "service")
    ]
    return (span.name, span.start_ms, span.end_ms, attributes, children)


class TestSingleQueryEquivalence:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("discipline", ["ps"])
    def test_single_query_is_bit_identical(
        self, make_deployment, discipline, scenario
    ):
        retried = 0
        for instance in build_workload(instances_per_type=1):
            (sequential, reference), (concurrent, result) = run_both(
                make_deployment,
                instance.sql,
                SCENARIOS[scenario],
                label=instance.label,
                discipline=discipline,
            )
            # Exact equality, not approx: an uncontended queue must add
            # zero float residue to any observable.
            assert result.rows == reference.rows
            assert result.response_ms == reference.response_ms
            assert result.remote_ms == reference.remote_ms
            assert result.merge_ms == reference.merge_ms
            assert result.retries == reference.retries
            assert result.plan.servers == reference.plan.servers
            assert books(concurrent) == books(sequential)
            retried += reference.retries
        assert (retried > 0) == (scenario == "winner-down")

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_failed_query_is_bit_identical(self, make_deployment, failure):
        """Both drivers give up with the same message, at the same
        instant, with the same books."""
        (sequential, reference), (concurrent, error) = run_both(
            make_deployment, QT3.instance(0).sql, FAILURES[failure]
        )
        assert isinstance(reference, FederationError)
        assert isinstance(error, FederationError)
        assert ("retries" in str(reference)) == (
            failure == "retries exhausted"
        )
        assert str(error) == str(reference)
        (record,) = sequential.integrator.patroller.records()
        assert record.status is QueryStatus.FAILED
        assert books(concurrent) == books(sequential)

    def test_failed_fragment_is_reported_after_the_ones_before_it(
        self, make_deployment, monkeypatch
    ):
        """A cross join with no join edge runs as two fragments, both on
        S3 at base load; the second one fails.  QCC must learn the first
        fragment's success and then the failure, in the order they
        happened, under both drivers: S3 ends up down in each."""
        built = []

        def failing_second_execute(**faults):
            deployment = make_deployment(**faults)
            wrapper = deployment.meta_wrapper.wrappers["S3"]
            execute, calls = wrapper.execute, []

            def failing_second(plan, t_ms):
                calls.append(t_ms)
                if len(calls) == 2:
                    raise ServerUnavailable("S3", t_ms)
                return execute(plan, t_ms)

            monkeypatch.setattr(wrapper, "execute", failing_second)
            built.append(calls)
            return deployment

        (sequential, reference), (concurrent, result) = run_both(
            failing_second_execute, CROSS_JOIN
        )
        for calls in built:
            assert calls[:2] == [calls[0]] * 2  # both fragments at S3
        assert result.retries == reference.retries == 1
        assert "S3" not in reference.plan.servers
        assert result.rows == reference.rows
        for deployment in (sequential, concurrent):
            assert not deployment.qcc.is_available("S3", 0.0)
        # The retry runs both fragments on one server, where the
        # concurrent driver's queue shares it between them: only the
        # availability books are comparable.
        for book in ("availability", "decisions"):
            assert books(concurrent)[book] == books(sequential)[book]

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_span_trees_are_identical(self, make_deployment, scenario):
        """One span shape: the two drivers differ only in what a
        scheduler adds (admission, queue_wait/service, the class)."""
        obs.configure(metrics=False, tracing=True, log_level=None)
        try:
            (_, reference), (_, result) = run_both(
                make_deployment, QT3.instance(0).sql, SCENARIOS[scenario]
            )
        finally:
            obs.disable()
        assert [s.name for s in reference.trace.spans] == ["query"]
        assert [span_tree(s) for s in result.trace.spans] == [
            span_tree(s) for s in reference.trace.spans
        ]
        assert result.trace.finished_ms == reference.trace.finished_ms
        assert decompose_trace(reference.trace)["exact"] is True

    def test_sequential_runs_unaffected_by_scheduler_import(
        self, make_deployment
    ):
        """Two identically seeded sequential submits bracket a
        concurrent run: the scheduler must leave no global state."""
        instance = QT1.instance(0)
        before = make_deployment().integrator.submit(instance.sql)

        runtime = ConcurrentRuntime(make_deployment().integrator)
        runtime.submit_at(0.0, instance.sql, klass="gold")
        runtime.run()

        after = make_deployment().integrator.submit(instance.sql)
        assert before.response_ms == after.response_ms
        assert before.rows == after.rows


class TestContentionInflation:
    def test_overlapping_queries_inflate_observed_latency(
        self, make_deployment
    ):
        instance = QT3.instance(0)

        solo = make_deployment()
        runtime = ConcurrentRuntime(solo.integrator)
        baseline = runtime.submit_at(0.0, instance.sql, klass="gold")
        runtime.run()

        crowded = make_deployment()
        runtime = ConcurrentRuntime(crowded.integrator)
        handles = [
            runtime.submit_at(0.0, instance.sql, klass="gold")
            for _ in range(8)
        ]
        runtime.run()

        assert all(h.result is not None for h in handles)
        slowest = max(h.result.response_ms for h in handles)
        assert slowest > baseline.result.response_ms
        # The inflation reached what the calibrator learns from, not
        # just the client-visible response times.
        observed = [
            e.observed_ms for e in noted_executions(crowded.meta_wrapper)
        ]
        solo_observed = [
            e.observed_ms for e in noted_executions(solo.meta_wrapper)
        ]
        assert max(observed) > max(solo_observed)

    def test_run_is_replayable(self, make_deployment):
        def drive():
            deployment = make_deployment()
            runtime = ConcurrentRuntime(deployment.integrator)
            instance = QT3.instance(0)
            handles = [
                runtime.submit_at(i * 5.0, instance.sql, klass="silver")
                for i in range(6)
            ]
            runtime.run()
            return [(h.status, h.response_ms) for h in handles]

        assert drive() == drive()

    def test_sheds_require_exhausted_headroom(self, make_deployment):
        """A tight lowest-class budget under heavy overlap sheds — and
        every shed verdict carries evidence that survives the audit."""
        classes = DEFAULT_CLASSES[:2] + (
            PriorityClass("batch", rank=2, weight=0.3, budget_ms=5.0),
        )
        deployment = make_deployment()
        runtime = ConcurrentRuntime(deployment.integrator, classes=classes)
        instance = QT3.instance(0)
        for i in range(10):
            runtime.submit_at(float(i), instance.sql, klass="batch")
        runtime.run()
        sheds = runtime.sheds()
        assert sheds, "a 5 ms budget under overlap must shed"
        assert all(h.shed.reason == "budget-exhausted" for h in sheds)
        from repro.fed.admission import shed_violations

        assert shed_violations(runtime.admission.decisions) == []
