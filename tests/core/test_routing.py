"""Unit tests for the QCC facade."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.core import QCCConfig, QueryCostCalibrator
from repro.core.routing import generalize_signature
from repro.sim import ServerUnavailable
from repro.sqlengine import PlanCost
from repro.sqlengine.expressions import Literal


def _qcc(**kwargs):
    return QueryCostCalibrator(["S1", "S2", "S3"], QCCConfig(**kwargs))


COST = PlanCost(first_tuple=1.0, total=10.0, rows=5.0)


class TestGeneralizeSignature:
    def test_numbers_replaced(self):
        assert generalize_signature("a > 123 AND b < 4.5") == "a > ? AND b < ?"

    def test_strings_replaced(self):
        assert generalize_signature("s = 'x''y'") == "s = ?"

    def test_identifiers_with_digits_kept(self):
        assert generalize_signature("SELECT c1 FROM t2") == "SELECT c1 FROM t2"

    def test_two_instances_share_signature(self):
        a = "SELECT x FROM t WHERE p > 5000"
        b = "SELECT x FROM t WHERE p > 6125.5"
        assert generalize_signature(a) == generalize_signature(b)

    def test_exponent_literals_fold_whole(self):
        # Literal.sql() writes |v| < 1e-4 and |v| >= 1e16 in exponent form.
        assert generalize_signature("x > 1e-05") == "x > ?"
        assert generalize_signature("x > 1.5e+20") == "x > ?"

    @given(
        st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False)),
        st.text(),
    )
    def test_every_rendered_literal_folds(self, number, text):
        # A sign is the grammar's minus operator (``-5`` parses as
        # ``0 - 5``), so it stays in the text; the number folds whole.
        rendered = Literal(number).sql()
        sign = "-" if rendered.startswith("-") else ""
        sql = f"SELECT a FROM t WHERE b > {rendered} AND c = {Literal(text).sql()}"
        assert generalize_signature(sql) == (
            f"SELECT a FROM t WHERE b > {sign}? AND c = ?"
        )


class TestCalibrateInterface:
    def test_unknown_server_factor_is_one(self):
        qcc = _qcc()
        calibrated = qcc.calibrate("S1", "sig", COST)
        assert calibrated.total == COST.total

    def test_learned_factor_applied(self):
        qcc = _qcc()
        qcc.record_execution(
            server="S1",
            fragment_signature="SELECT x FROM t WHERE p > 100",
            plan_signature="plan",
            estimated=COST,
            observed_ms=30.0,
            t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        calibrated = qcc.calibrate(
            "S1", "SELECT x FROM t WHERE p > 999", COST
        )
        # generalized signature matches -> per-fragment factor 3.0
        assert calibrated.total == pytest.approx(30.0)

    def test_down_server_gets_infinite_cost(self):
        qcc = _qcc()
        qcc.record_error("S2", 0.0)
        assert math.isinf(qcc.calibrate("S2", "sig", COST).total)
        assert not qcc.is_available("S2", 1.0)

    def test_reliability_penalty_folded_in(self):
        qcc = _qcc()
        qcc.record_error("S1", 0.0)
        qcc.record_execution(
            server="S1",
            fragment_signature="sig",
            plan_signature="p",
            estimated=COST,
            observed_ms=10.0,
            t_ms=1.0,
        )
        qcc.recalibrate(1.0)
        calibrated = qcc.calibrate("S1", "sig2", COST)
        assert calibrated.total > COST.total  # 50% success rate penalty

    def test_reliability_can_be_disabled(self):
        qcc = _qcc(enable_reliability=False)
        qcc.record_error("S1", 0.0)
        qcc.record_execution(
            server="S1",
            fragment_signature="sig",
            plan_signature="p",
            estimated=COST,
            observed_ms=10.0,
            t_ms=1.0,
        )
        qcc.recalibrate(1.0)
        assert qcc.calibrate("S1", "sig2", COST).total == pytest.approx(10.0)


class TestTick:
    def test_recalibration_fires_on_schedule(self):
        qcc = _qcc()
        base = qcc.config.cycle.base_interval_ms
        qcc.tick(base - 1.0)
        assert qcc.recalibrations == 0
        qcc.tick(base + 1.0)
        assert qcc.recalibrations == 1

    def test_cycle_interval_adapts(self):
        qcc = _qcc()
        for observed in (10.0, 90.0, 20.0, 80.0):
            qcc.record_execution(
                server="S1",
                fragment_signature="sig",
                plan_signature="p",
                estimated=COST,
                observed_ms=observed,
                t_ms=0.0,
            )
        qcc.recalibrate(0.0)
        volatile_interval = qcc.cycle.current_interval_ms
        assert volatile_interval < qcc.config.cycle.max_interval_ms

    def test_drift_triggers_early_recalibration(self):
        qcc = _qcc(drift_trigger_ratio=2.0)
        # Establish an active factor of 1.0.
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=10.0, t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        before = qcc.recalibrations
        # A 5x environment shift, well before the next timer deadline.
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=50.0, t_ms=1.0,
        )
        qcc.tick(2.0)
        assert qcc.drift_recalibrations == 1
        assert qcc.recalibrations == before + 1
        assert qcc.factor("S1") == pytest.approx(5.0)

    def test_drift_trigger_disabled(self):
        qcc = _qcc(drift_trigger_ratio=0.0)
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=10.0, t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=500.0, t_ms=1.0,
        )
        qcc.tick(2.0)
        assert qcc.drift_recalibrations == 0

    def test_small_drift_does_not_trigger(self):
        qcc = _qcc(drift_trigger_ratio=2.0)
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=10.0, t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=15.0, t_ms=1.0,
        )
        qcc.tick(2.0)
        assert qcc.drift_recalibrations == 0

    def test_probe_without_meta_wrapper_is_noop(self):
        qcc = _qcc()
        qcc.probe_servers(0.0)
        assert qcc.probes == 0


class TestRecommendGlobal:
    def test_passthrough_when_balancing_disabled(self):
        from tests.core.test_load_balance import _decomposed, _global_plan

        qcc = _qcc(enable_global_balancing=False)
        plans = [
            _global_plan("p1", ["S1"], 10.0),
            _global_plan("p2", ["S2"], 10.1),
        ]
        picks = {
            qcc.recommend_global(_decomposed(), plans, None, 0.0).plan_id
            for _ in range(4)
        }
        assert picks == {"p1"}

    def test_rotation_when_enabled(self):
        from tests.core.test_load_balance import _decomposed, _global_plan

        qcc = _qcc(enable_global_balancing=True)
        plans = [
            _global_plan("p1", ["S1"], 10.0),
            _global_plan("p2", ["S2"], 10.1),
        ]
        picks = {
            qcc.recommend_global(_decomposed(), plans, None, 0.0).plan_id
            for _ in range(4)
        }
        assert picks == {"p1", "p2"}


class TestIiInterface:
    def test_ii_factor_learned(self):
        qcc = _qcc()
        assert qcc.ii_factor() == 1.0
        qcc.record_ii_execution(10.0, 14.0, 0.0)
        qcc.record_ii_execution(10.0, 14.0, 0.0)
        qcc.recalibrate(0.0)
        assert qcc.ii_factor() == pytest.approx(1.4)


class TestStatus:
    def test_status_snapshot(self):
        qcc = _qcc()
        qcc.record_error("S3", 0.0)
        status = qcc.status()
        assert status["down_servers"] == ["S3"]
        assert status["ii_factor"] == 1.0
        assert "cycle_interval_ms" in status
        assert "recent_decisions" in status


class TestDecisionLog:
    def test_down_and_up_transitions_logged(self):
        qcc = _qcc()
        qcc.record_error("S3", 10.0)
        kinds = [d.kind for d in qcc.decision_log]
        assert kinds == ["server-down"]
        # Repeated errors on an already-down server do not spam the log.
        qcc.record_error("S3", 11.0)
        assert len(qcc.decision_log) == 1
        qcc.availability.record_probe("S3", 20.0, rtt_ms=5.0)

    def test_failed_ratio_probe_logged(self):
        """The ping answers, then the calibration probe fails (a flaky
        window's injected error): the server goes down, and the log says
        so as it does for a failed ping."""

        class RatioProbeFails:
            def server_names(self):
                return ["S1"]

            def probe(self, server, t_ms):
                return 1.0

            def probe_ratio(self, server, t_ms):
                raise ServerUnavailable(server, t_ms, transient=True)

        qcc = _qcc()
        qcc.bind_meta_wrapper(RatioProbeFails())
        qcc.probe_servers(0.0)
        assert not qcc.is_available("S1", 0.0)
        assert [(d.kind, d.detail) for d in qcc.decision_log] == [
            ("server-down", "S1 failed its daemon probe")
        ]

    def test_factor_shift_logged(self):
        qcc = _qcc()
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=10.0, t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=50.0, t_ms=1.0,
        )
        qcc.recalibrate(1.0)
        shifts = [d for d in qcc.decision_log if d.kind == "factor-shift"]
        assert shifts
        assert "S1" in shifts[-1].detail

    def test_small_shift_not_logged(self):
        qcc = _qcc()
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=10.0, t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        baseline = len(
            [d for d in qcc.decision_log if d.kind == "factor-shift"]
        )
        qcc.record_execution(
            server="S1", fragment_signature="sig", plan_signature="p",
            estimated=COST, observed_ms=11.0, t_ms=1.0,
        )
        qcc.recalibrate(1.0)
        shifts = [d for d in qcc.decision_log if d.kind == "factor-shift"]
        assert len(shifts) == baseline  # 1.0 -> 1.1 is below the 1.5x gate

    def test_log_bounded(self):
        qcc = _qcc()
        for t in range(600):
            qcc.record_error("S1", float(t))
            qcc.availability.record_success("S1", float(t) + 0.5)
        assert len(qcc.decision_log) <= 256
