"""Figure 10: QCC's performance gain over Fixed Assignment 1.

The baseline is "a typical federated information system in which how
federated queries are distributed to remote servers are fixed and
pre-determined in the phase of nickname definition registration":
QT1,QT3 -> S1; QT2 -> S2; QT4 -> S3.  The paper reports an average gain
of almost 50%, and almost 60% even when all remote servers are loaded
(Phase 8).

Shape assertions: positive gain in every phase; average gain in the
30-70% band around the paper's ~50%; Phase 8 gain at least 30%.
"""

from __future__ import annotations


from repro.harness import ascii_table, bar_chart


def test_figure10_gain_over_fixed_assignment_1(benchmark, evaluation):
    figure = benchmark.pedantic(evaluation.figure10, rounds=1, iterations=1)
    gains = figure.gains

    print("\n=== Figure 10: benefit of QCC over Fixed Assignment 1 ===")
    rows = [
        [phase, figure.baseline_ms[phase], figure.qcc_ms[phase], gain]
        for phase, gain in gains.items()
    ]
    print(
        ascii_table(
            ["Phase", "Fixed (ms)", "QCC (ms)", "Gain (%)"], rows
        )
    )
    print()
    print(bar_chart(gains, unit="%", title="Gain per phase"))
    average = figure.average_gain
    print(f"\nAverage gain: {average:.1f}%  (paper: ~50%)")

    # -- shape assertions ---------------------------------------------------
    assert all(g > 0 for g in gains.values()), gains
    assert 30.0 <= average <= 70.0, average
    assert gains["Phase8"] >= 30.0, gains["Phase8"]
    # The worst phase for QCC is phase 2 (fixed already avoids loaded
    # S3 for most types); even there QCC must not lose.
    assert min(gains.values()) >= 0.0
