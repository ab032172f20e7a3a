"""Routing quality: regret against the hindsight-best server, and the
cost residual before and after calibration.

Both read the session :class:`~repro.harness.Evaluation` (the
``evaluation`` fixture of ``benchmarks/conftest.py``), so no system's
phase sweep runs twice next to the Table 2 and Figure 10/11 benches.

Gates, per phase of the sweep's measured pass:

* QCC's regret stays under :data:`QCC_REGRET_BOUND_MS` (the largest
  phase at bench scale measures 2.5 ms), and its mean over the phases is
  below both fixed assignments';
* the calibrated residual (observed / calibrated cost) is closer to 1
  than the raw one (observed / load-blind estimate): calibration removes
  estimate error rather than adding it.
"""

from __future__ import annotations

import math

from repro.harness.metrics import mean

#: Largest per-phase mean regret (ms) QCC may show.
QCC_REGRET_BOUND_MS = 3.0


def test_qcc_regret_is_bounded_and_below_fixed(benchmark, evaluation):
    result = benchmark.pedantic(evaluation.regret, rounds=1, iterations=1)
    print("\n" + result.render())

    qcc = result.mean_ms["QCC"]
    assert max(qcc.values()) < QCC_REGRET_BOUND_MS, qcc
    overall = {
        system: mean(list(by_phase.values()))
        for system, by_phase in result.mean_ms.items()
    }
    assert overall["QCC"] < overall["Fixed 1"], overall
    assert overall["QCC"] < overall["Fixed 2"], overall


def test_calibration_shrinks_the_cost_residual(benchmark, evaluation):
    result = benchmark.pedantic(evaluation.residual, rounds=1, iterations=1)
    print("\n" + result.render())

    for phase, (raw, _) in result.raw.items():
        calibrated, _ = result.calibrated[phase]
        assert abs(math.log(calibrated)) < abs(math.log(raw)), (
            phase, raw, calibrated
        )
