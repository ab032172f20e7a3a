"""The paper's worked example, with its exact numbers.

Figures 3-5 walk one calibration cycle: fragments QF1 (at S1) and QF2
(at S2) are estimated at 5 each; the observed response times are 8 and
7, so the per-server factors become 1.6 and 1.4.  A new fragment QF3
then arrives for S2 with estimate 8, and MW returns the *calibrated*
cost 11.2 = 8 x 1.4 instead.

Figure 6 does the same at the II level with the workload factor.
"""

import pytest

from repro.core import CostCalibrator, IICalibrator
from repro.core.routing import QueryCostCalibrator
from repro.sqlengine import PlanCost


class TestFigure345Walkthrough:
    def test_factors_match_paper(self):
        calibrator = CostCalibrator()
        # Runtime phase (Figure 4): estimated vs observed per fragment.
        calibrator.record("S1", "QF1", 5.0, 8.0)
        calibrator.record("S2", "QF2", 5.0, 7.0)
        calibrator.recalibrate()
        # "the calibration factors for S1 and S2 can be calculated as
        # 1.6 (i.e. 8/5) and 1.4 (i.e. 7/5) respectively"
        assert calibrator.factor("S1") == pytest.approx(1.6)
        assert calibrator.factor("S2") == pytest.approx(1.4)

    def test_unseen_fragment_calibrated_by_server_factor(self):
        calibrator = CostCalibrator()
        calibrator.record("S2", "QF2", 5.0, 7.0)
        calibrator.recalibrate()
        # Figure 5: "MW calibrates the cost to 11.2 by multiplying the
        # estimated cost, 8, by the per server ... factor, 1.4"
        qf3_estimate = PlanCost(first_tuple=1.0, total=8.0, rows=10.0)
        calibrated = calibrator.calibrate(qf3_estimate, "S2", "QF3")
        assert calibrated.total == pytest.approx(11.2)
        # cardinality is returned untouched: only costs are calibrated
        assert calibrated.rows == 10.0

    def test_full_qcc_facade_reproduces_walkthrough(self):
        qcc = QueryCostCalibrator(["S1", "S2"])
        estimate = PlanCost(first_tuple=1.0, total=5.0, rows=10.0)
        qcc.record_execution(
            server="S1", fragment_signature="QF1", plan_signature="p1",
            estimated=estimate, observed_ms=8.0, t_ms=0.0,
        )
        qcc.record_execution(
            server="S2", fragment_signature="QF2", plan_signature="p1",
            estimated=estimate, observed_ms=7.0, t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        qf3 = PlanCost(first_tuple=1.0, total=8.0, rows=10.0)
        assert qcc.calibrate("S2", "QF3", qf3).total == pytest.approx(11.2)
        # QF1 is known: its own history drives the calibration.
        qf1 = PlanCost(first_tuple=1.0, total=5.0, rows=10.0)
        assert qcc.calibrate("S1", "QF1", qf1).total == pytest.approx(8.0)


class TestFigure6Walkthrough:
    def test_ii_workload_factor(self):
        """Figure 6: II's own processing is calibrated from execution
        history — estimated global cost (built from calibrated source
        costs) vs observed end-to-end time."""
        ii = IICalibrator()
        ii.record(10.0, 12.0)
        ii.record(20.0, 24.0)
        ii.recalibrate()
        assert ii.factor == pytest.approx(1.2)
