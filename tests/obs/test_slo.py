"""SLO monitor: burn rates, multi-window alerts, verdict determinism."""

import math
from types import SimpleNamespace

import pytest

from repro.fed.admission import PriorityClass
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_TARGET_MS,
    BurnWindow,
    SLOMonitor,
    SLOPolicy,
    policy_for_class,
)

#: One window pair with easy round numbers: long 100ms / short 25ms,
#: firing at 4x budget burn.
WINDOW = BurnWindow("w", long_ms=100.0, short_ms=25.0, threshold=4.0)


def monitor(objective=0.9, target_ms=50.0):
    return SLOMonitor(
        [
            SLOPolicy(
                klass="gold",
                target_ms=target_ms,
                objective=objective,
                windows=(WINDOW,),
            )
        ]
    )


class TestPolicyForClass:
    def test_budgeted_class_uses_its_budget_as_target(self):
        spec = PriorityClass("batch", rank=2, budget_ms=800.0)
        policy = policy_for_class(spec)
        assert policy.target_ms == 800.0
        assert policy.klass == "batch"

    def test_unbudgeted_class_falls_back_to_default(self):
        spec = PriorityClass("gold", rank=0, budget_ms=math.inf)
        assert policy_for_class(spec).target_ms == DEFAULT_TARGET_MS
        assert (
            policy_for_class(spec, default_target_ms=250.0).target_ms == 250.0
        )

    def test_objective_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(klass="x", objective=1.0)
        with pytest.raises(ValueError):
            BurnWindow("w", long_ms=10.0, short_ms=20.0, threshold=1.0)


class TestBurnRate:
    def test_burn_is_bad_fraction_over_error_budget(self):
        m = monitor(objective=0.9)
        for i in range(8):
            m.observe_completion("gold", finished_ms=10.0 + i, latency_ms=1.0)
        m.observe_shed("gold", 18.0)
        m.observe_failure("gold", 19.0)
        # 2 bad of 10 in the window: (0.2) / (0.1 budget) = 2x.
        assert m.burn_rate("gold", 20.0, 100.0) == pytest.approx(2.0)

    def test_empty_window_burns_nothing(self):
        m = monitor()
        m.observe_shed("gold", 5.0)
        assert m.burn_rate("gold", 200.0, 50.0) == 0.0

    def test_window_is_half_open_on_the_left(self):
        m = monitor()
        m.observe_shed("gold", 100.0)
        assert m.burn_rate("gold", 200.0, 100.0) == 0.0  # t in (100, 200]
        assert m.burn_rate("gold", 200.0, 100.0 + 1e-9) > 0.0

    def test_slow_completion_is_bad(self):
        m = monitor(target_ms=50.0)
        m.observe_completion("gold", 10.0, latency_ms=50.0)  # on target: good
        m.observe_completion("gold", 11.0, latency_ms=50.1)  # over: bad
        assert m.burn_rate("gold", 20.0, 100.0) == pytest.approx(5.0)

    def test_unknown_class_raises(self):
        m = monitor()
        with pytest.raises(KeyError):
            m.observe_shed("bronze", 1.0)
        with pytest.raises(KeyError):
            m.burn_rate("bronze", 1.0, 10.0)


class TestSweep:
    def test_alert_requires_both_windows_over_threshold(self):
        m = monitor(objective=0.9)  # threshold 4x => >= 40% bad
        # Old burst of badness: saturates the long window at checkpoints
        # shortly after, but the short window has gone quiet by the
        # first checkpoint (grid at 50/100ms, burst over by 5ms).
        for i in range(5):
            m.observe_shed("gold", 1.0 + i)
        for i in range(5):
            m.observe_completion("gold", 30.0 + i, latency_ms=1.0)
        (alert,) = m.sweep("gold", end_ms=100.0, step_ms=50.0)
        assert alert.peak_long_burn >= alert.threshold
        assert not alert.fired, (
            "long-window-only breach must not page: the burst ended"
        )

    def test_sustained_badness_fires_and_dates_the_breach(self):
        m = monitor(objective=0.9)
        for i in range(20):
            m.observe_shed("gold", 30.0 + i * 4.0)  # bad from 30ms on
        (alert,) = m.sweep("gold", end_ms=200.0, step_ms=25.0)
        assert alert.fired
        assert alert.first_fired_ms == 50.0
        assert alert.checkpoints_fired > 1

    def test_step_grid_is_inclusive_of_end(self):
        m = monitor()
        m.observe_shed("gold", 99.0)
        (alert,) = m.sweep("gold", end_ms=100.0, step_ms=50.0)
        assert alert.peak_short_burn > 0.0

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            monitor().sweep("gold", end_ms=100.0, step_ms=0.0)


def _verdict(report, klass):
    """*report*'s verdict for *klass*."""
    (verdict,) = [v for v in report.verdicts if v.klass == klass]
    return verdict


class TestReport:
    def test_default_step_is_quarter_of_smallest_short_window(self):
        report = monitor().report(end_ms=100.0)
        assert report.step_ms == WINDOW.short_ms / 4.0

    def test_no_traffic_class_has_no_compliance_and_no_breach(self):
        report = monitor().report(end_ms=100.0)
        verdict = _verdict(report, "gold")
        assert verdict.compliance is None
        assert verdict.budget_burned == 0.0
        assert not verdict.breached
        assert not report.breached

    def test_compliance_below_objective_breaches_without_alerts(self):
        m = monitor(objective=0.9)
        # Enough good traffic around each bad event that no window ever
        # reaches the 4x burn threshold — the breach, when it comes, is
        # purely the whole-run compliance dropping under the objective.
        for t in (100.0, 200.0, 300.0, 400.0, 500.0, 960.0, 970.0,
                  980.0, 990.0):
            m.observe_completion("gold", t, latency_ms=1.0)
        m.observe_shed("gold", 1000.0)
        verdict = _verdict(m.report(end_ms=1000.0, step_ms=25.0), "gold")
        assert verdict.compliance == pytest.approx(0.9)
        assert not any(alert.fired for alert in verdict.alerts)
        assert not verdict.breached
        m.observe_shed("gold", 1001.0)
        verdict = _verdict(m.report(end_ms=1001.0, step_ms=25.0), "gold")
        assert verdict.compliance < 0.9
        assert not any(alert.fired for alert in verdict.alerts)
        assert verdict.breached

    def test_shed_and_failed_are_itemised(self):
        m = monitor()
        m.observe_completion("gold", 1.0, latency_ms=1.0)
        m.observe_shed("gold", 2.0)
        m.observe_failure("gold", 3.0)
        verdict = _verdict(m.report(end_ms=10.0), "gold")
        assert (verdict.total, verdict.good, verdict.bad) == (3, 1, 2)
        assert (verdict.shed, verdict.failed) == (1, 1)

    def test_ingest_maps_handles_to_events(self):
        m = monitor(target_ms=50.0)
        handles = [
            SimpleNamespace(
                klass="gold",
                submitted_ms=10.0,
                result=SimpleNamespace(response_ms=40.0),
                shed=None,
                error=None,
            ),
            SimpleNamespace(
                klass="gold",
                submitted_ms=20.0,
                result=None,
                shed=object(),
                error=None,
            ),
            SimpleNamespace(
                klass="gold",
                submitted_ms=30.0,
                result=None,
                shed=None,
                error=RuntimeError("boom"),
            ),
        ]
        m.ingest(handles)
        verdict = _verdict(m.report(end_ms=100.0), "gold")
        assert (verdict.good, verdict.shed, verdict.failed) == (1, 1, 1)

    def test_report_is_deterministic(self):
        def build():
            m = monitor(objective=0.9)
            for i in range(30):
                if i % 3 == 0:
                    m.observe_shed("gold", i * 5.0)
                else:
                    m.observe_completion("gold", i * 5.0, latency_ms=10.0)
            return m.report(end_ms=160.0).to_dict()

        assert build() == build()

    def test_emit_metrics_publishes_verdict_families(self):
        registry = MetricsRegistry()
        m = monitor(objective=0.9)
        for i in range(20):
            m.observe_shed("gold", 30.0 + i * 4.0)
        m.report(end_ms=200.0).emit_metrics(registry)
        assert registry.gauge("slo_compliance", klass="gold").value == 0.0
        assert registry.gauge("slo_budget_burned", klass="gold").value > 1.0
        assert (
            registry.counter("slo_alerts_total", klass="gold", window="w")
            .value
            == 1
        )

    def test_duplicate_policy_rejected(self):
        with pytest.raises(ValueError):
            SLOMonitor(
                [SLOPolicy(klass="gold"), SLOPolicy(klass="gold")]
            )
        with pytest.raises(ValueError):
            SLOMonitor([])
