"""Robustness: the headline gain is not an artifact of one seed.

Reruns the Figure 10 comparison (QCC vs Fixed Assignment 1) under
several data/workload seeds and checks that the average gain stays in a
healthy band for every one of them.  A reproduction whose result
depends on the random tables it happened to generate would be worthless.
"""

from __future__ import annotations

import os

from repro.baselines import fixed_assignment_deployment, qcc_deployment
from repro.harness import (
    DEFAULT_SERVER_SPECS,
    ascii_table,
    build_databases,
    gains_by_phase,
    mean,
    run_phase_sweep,
)
from repro.workload import BENCH_SCALE, PHASES, build_workload


def _seeds_from_env(default=(7, 23, 101)):
    """Explicit seed set, overridable via ``REPRO_BENCH_SEEDS=7,23,101``.

    The seeds are always explicit — the sweep never samples from global
    random state — so a CI failure names the exact seed to rerun.
    """
    raw = os.environ.get("REPRO_BENCH_SEEDS", "").strip()
    if not raw:
        return default
    return tuple(int(part) for part in raw.split(",") if part.strip())


SEEDS = _seeds_from_env()
INSTANCES_PER_TYPE = 3
#: A reduced phase set keeps the three-seed sweep tractable while still
#: covering idle, S3-loaded, S1-loaded and all-loaded regimes.
PHASE_SUBSET = (PHASES[0], PHASES[1], PHASES[4], PHASES[7])


def _gain_for_seed(seed: int) -> float:
    databases = build_databases(DEFAULT_SERVER_SPECS, BENCH_SCALE, seed=seed)
    workload = build_workload(instances_per_type=INSTANCES_PER_TYPE, seed=seed)
    fixed = fixed_assignment_deployment(
        scale=BENCH_SCALE, seed=seed, prebuilt_databases=databases
    )
    calibrated = qcc_deployment(
        scale=BENCH_SCALE, seed=seed, prebuilt_databases=databases
    )
    fixed_sweep = run_phase_sweep(fixed, workload, phases=PHASE_SUBSET)
    qcc_sweep = run_phase_sweep(calibrated, workload, phases=PHASE_SUBSET)
    gains = gains_by_phase(fixed_sweep, qcc_sweep)
    return mean(list(gains.values()))


def _measure():
    return {seed: _gain_for_seed(seed) for seed in SEEDS}


def test_headline_gain_is_seed_robust(benchmark, bench_databases):
    results = benchmark.pedantic(_measure, rounds=1, iterations=1)

    print("\n=== Robustness: Figure 10 average gain across seeds ===")
    print(
        ascii_table(
            ["Seed", "Average gain (%)"],
            [[seed, gain] for seed, gain in results.items()],
        )
    )
    values = list(results.values())
    print(f"mean across seeds: {mean(values):.1f}%")

    # Every seed individually shows a solid gain...
    for seed, gain in results.items():
        assert gain > 25.0, (seed, gain)
    # ...and the cross-seed mean sits in the paper's neighbourhood.
    assert 30.0 <= mean(values) <= 75.0
