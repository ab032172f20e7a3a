"""End-to-end: a routed federated query emits a coherent trace + metrics."""

from __future__ import annotations

import pytest

from repro.harness import build_federation
from repro.workload import TEST_SCALE

QUERY = (
    "SELECT o.priority, COUNT(*) AS cnt FROM orders o "
    "WHERE o.totalprice > 5000 GROUP BY o.priority"
)


@pytest.fixture()
def deployment(sample_databases):
    return build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    )


class TestTracedQuery:
    def test_trace_covers_the_pipeline(self, live_obs, deployment):
        result = deployment.integrator.submit(QUERY)
        trace = result.trace
        assert trace is not None
        assert trace.query_id == result.record.query_id
        assert trace.status == "completed"
        for name in ("decompose", "plan_enumeration", "route", "dispatch",
                     "merge"):
            assert trace.find(name), f"missing {name} span"
        assert trace.response_ms == pytest.approx(result.response_ms)

    def test_dispatch_spans_match_calibration_factors(
        self, live_obs, deployment
    ):
        # Warm-up workload so QCC learns non-trivial factors, then a
        # recalibration to fold them into the active set.
        for _ in range(6):
            deployment.integrator.submit(QUERY)
        deployment.qcc.recalibrate(deployment.clock.now)
        result = deployment.integrator.submit(QUERY)

        dispatches = result.trace.find("dispatch")
        assert dispatches
        decomposed, _ = deployment.integrator.compile(QUERY)
        signatures = {f.fragment_id: f.signature for f in decomposed.fragments}
        for span in dispatches:
            attrs = span.attributes
            expected = deployment.qcc.factor(
                attrs["server"], signatures[attrs["fragment"]]
            )
            assert attrs["calibration_factor"] == pytest.approx(expected)
            assert expected != 1.0  # the warm-up actually taught QCC
            assert attrs["estimated_total"] == pytest.approx(
                result.fragments[attrs["fragment"]].estimated_total
            )
            assert attrs["observed_ms"] > 0

    def test_calibration_lookups_nest_under_plan_enumeration(
        self, live_obs, deployment
    ):
        result = deployment.integrator.submit(QUERY)
        (enumeration,) = result.trace.find("plan_enumeration")
        lookups = [
            c for c in enumeration.children if c.name == "calibration_lookup"
        ]
        assert lookups
        servers = {span.attributes["server"] for span in lookups}
        assert result.servers <= servers

    def test_metrics_reflect_the_workload(self, live_obs, deployment):
        for _ in range(3):
            deployment.integrator.submit(QUERY)
        metrics = live_obs.metrics
        assert metrics.counter_value("ii_queries_total") == 3.0
        assert metrics.counter_value("queries_completed_total") == 3.0
        executed = sum(
            metrics.counter_value(
                "mw_fragment_executions_total", server=server
            )
            for server in ("S1", "S2", "S3")
        )
        assert executed >= 3.0
        assert metrics.histogram("ii_response_ms").count == 3

    def test_disabled_sink_leaves_result_untraced(self, deployment):
        result = deployment.integrator.submit(QUERY)
        assert result.trace is None


class TestStalenessDropIsObservable:
    def test_fragment_factor_drop_emits_metric_and_log(
        self, live_obs, caplog
    ):
        from repro.core.calibrator import FRAGMENT_STALE_CYCLES, CostCalibrator

        assert FRAGMENT_STALE_CYCLES == 2
        calibrator = CostCalibrator()
        for _ in range(3):
            calibrator.record("S1", "QF1", estimated_total=10.0, observed_ms=30.0)
        calibrator.recalibrate()
        assert calibrator.factor("S1", "QF1") == pytest.approx(3.0)

        with caplog.at_level("INFO", logger="repro.calibrator"):
            calibrator.recalibrate()  # stale cycle 1
            calibrator.recalibrate()  # stale cycle 2 -> drop
        assert live_obs.metrics.counter_value(
            "calibrator_fragment_factors_dropped_total", server="S1"
        ) == 1.0
        assert any(
            "falling back to" in message for message in caplog.messages
        )
