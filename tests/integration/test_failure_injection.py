"""Property-based failure injection: the federation degrades gracefully.

Random outage schedules and error rates are thrown at the deployment;
the invariant is that every submitted query either completes with the
correct result or fails with a clean FederationError — never a crash —
and that the patroller's books always balance.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings, strategies as st

import repro.obs as obs
from repro.fed import ConcurrentRuntime, FederationError, QueryStatus
from repro.harness import DEFAULT_SERVER_SPECS, build_federation
from repro.sim import (
    OutageSchedule,
    ServerUnavailable,
    WindowedErrorInjector,
)
from repro.sqlengine import rows_close_unordered
from repro.workload import QT1, QT2, QT3, QT4, TEST_SCALE


@st.composite
def _fault_plans(draw):
    """Per-server outage windows and transient error rates."""
    plan = {}
    for server in ("S1", "S2", "S3"):
        has_outage = draw(st.booleans())
        if has_outage:
            start = draw(st.floats(0.0, 5_000.0))
            length = draw(st.floats(100.0, 50_000.0))
            plan[server] = ("outage", (start, start + length))
        else:
            rate = draw(st.sampled_from([0.0, 0.0, 0.2, 0.5]))
            plan[server] = ("errors", rate)
    return plan


class TestFailureInjection:
    @given(_fault_plans(), st.integers(0, 10_000))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_graceful_degradation(self, sample_databases, plan, start_time):
        availability = {}
        error_rates = {}
        for server, (kind, value) in plan.items():
            if kind == "outage":
                availability[server] = OutageSchedule([value])
            else:
                error_rates[server] = value
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability=availability,
            specs=[
                replace(spec, error_rate=error_rates.get(spec.name, 0.0))
                for spec in DEFAULT_SERVER_SPECS
            ],
        )
        deployment.clock.advance(float(start_time))
        instance = QT3.instance(0)
        reference = sample_databases["S1"].run(instance.sql).rows

        completed = failed = 0
        for _ in range(4):
            try:
                result = deployment.integrator.submit(
                    instance.sql, label="QT3"
                )
            except (FederationError, ServerUnavailable):
                failed += 1
                continue
            completed += 1
            # Any successful answer must be the correct answer.
            assert rows_close_unordered(result.rows, reference)

        patroller = deployment.integrator.patroller
        records = patroller.records()
        assert len(records) == completed + failed
        assert (
            sum(1 for r in records if r.status is QueryStatus.COMPLETED)
            == completed
        )
        assert patroller.failure_count() == failed
        # Response times are recorded for every completed query.
        for record in patroller.completed():
            assert record.response_time_ms is not None
            assert record.response_time_ms >= 0


class TestMidQueryFaults:
    """Faults landing *between* compile and dispatch within one submit.

    The integrator compiles at ``t0`` and dispatches at ``t0 +
    compile_overhead_ms``; a fault window opening inside that gap is
    invisible to the router's compile-time availability view and must be
    absorbed by the retry loop, not crash the query.
    """

    def test_outage_between_compile_and_dispatch_is_retried(
        self, sample_databases
    ):
        # Every server goes down 1ms after submit-time compile, and
        # comes back before the first retry (failure_penalty_ms=250):
        # whichever server the router picked, the dispatch at t0+2 hits
        # a down server, the retry recompiles and completes.
        availability = {
            name: OutageSchedule([(1.0, 200.0)])
            for name in ("S1", "S2", "S3")
        }
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability=availability,
        )
        instance = QT1.instance(0)
        reference = sample_databases["S1"].run(instance.sql).rows

        result = deployment.integrator.submit(instance.sql, label="QT1")

        assert result.retries >= 1
        assert rows_close_unordered(result.rows, reference)
        # The retry's failure penalty is part of the observed response.
        assert result.response_ms >= deployment.integrator.failure_penalty_ms

    def test_flaky_retry_executes_at_advanced_timestamp(
        self, sample_databases
    ):
        """Regression: retries must re-dispatch at ``t0 + elapsed``.

        Every server hard-fails during [1, 100)ms — after the QCC's
        t=0 bootstrap probe, so all servers start reachable.  The first
        dispatch (t=2ms) lands in the window; the retry carries the
        250ms failure penalty, so it re-executes at ~252ms — outside
        the window — and succeeds.  A retry loop reusing the stale
        submit timestamp would dispatch back inside the window every
        time and exhaust all retries into a FederationError.
        """
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        for name, server in deployment.servers.items():
            server.errors = WindowedErrorInjector(
                [(1.0, 100.0, 1.0)], seed=11, name=name
            )
        instance = QT1.instance(1)
        reference = sample_databases["S1"].run(instance.sql).rows

        result = deployment.integrator.submit(instance.sql, label="QT1")

        assert result.retries >= 1
        assert rows_close_unordered(result.rows, reference)

    def test_unrelenting_outage_fails_cleanly(self, sample_databases):
        """When no retry can escape the fault, failure is clean."""
        availability = {
            name: OutageSchedule([(1.0, 1e9)])
            for name in ("S1", "S2", "S3")
        }
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability=availability,
        )
        instance = QT1.instance(2)
        try:
            deployment.integrator.submit(instance.sql, label="QT1")
        except (FederationError, ServerUnavailable):
            pass
        else:
            raise AssertionError("expected the query to fail")
        patroller = deployment.integrator.patroller
        assert patroller.failure_count() == 1


class TestStaleSuccess:
    """Under contention a fragment reports at its *dispatch* instant
    after it leaves its queue, so a fragment dispatched before the error
    that marked its server down can settle after it."""

    def test_stale_success_does_not_bring_a_down_server_back(
        self, sample_databases
    ):
        deployment = build_federation(
            scale=TEST_SCALE,
            prebuilt_databases=sample_databases,
            availability={"S3": OutageSchedule([(20.0, 5_000.0)])},
        )
        runtime = ConcurrentRuntime(deployment.integrator)
        types = (QT1, QT2, QT3, QT4)
        obs.configure(metrics=False, tracing=False, log_level=None)
        try:
            for index in range(48):
                query = types[index % 4]
                runtime.submit_at(
                    float(index), query.instance(index).sql, label=query.name
                )
            runtime.run()
            transitions = [
                (event.t_ms, event.kind)
                for event in obs.get_obs().timeline.events
                if event.server == "S3" and event.kind.startswith("server-")
            ]
        finally:
            obs.disable()
        # Marked down once, by the first error; no success of a fragment
        # dispatched before it brings S3 back before the outage ends.
        assert transitions == [(20.0, "server-down")]
        downs = [
            decision.t_ms
            for decision in deployment.qcc.decision_log
            if decision.kind == "server-down" and "S3" in decision.detail
        ]
        assert downs == [20.0]
        assert not runtime.failures()
