"""Pytest bridge for the chaos harness: the CI smoke sweep.

Runs a fixed seed set through the full scenario-execute-check loop and
asserts every bundled invariant holds — the same loop ``python -m repro
chaos`` drives, so a red test here reproduces from the printed spec.
"""

import pytest

from repro.chaos import (
    generate_scenario,
    registered_checkers,
    run_checkers,
    run_scenario,
    violations,
)

#: (seed, index) pairs chosen to cover both topologies and all five
#: fault kinds; kept small so the tier-1 run stays fast.  The CI
#: chaos-smoke job sweeps 100 scenarios on top of this.
SMOKE_SCENARIOS = [(42, i) for i in range(6)] + [(42, 8), (42, 10), (7, 0)]

EXPECTED_CHECKERS = {
    "oracle-equivalence",
    "no-down-dispatch",
    "no-stale-dispatch",
    "calibration-bounds",
    "cache-epoch",
    "sqlite-answers",
    "shed-only-over-budget",
}


def _databases_for(spec, sample_databases):
    # The triple topology reuses the session-scoped fixture (same data
    # seed); the replica topology's shared build is cached in-module.
    return sample_databases if spec.topology == "triple" else None


def test_all_bundled_checkers_are_registered():
    assert EXPECTED_CHECKERS <= set(registered_checkers())


@pytest.mark.parametrize("seed,index", SMOKE_SCENARIOS)
def test_invariants_hold(seed, index, sample_databases):
    spec = generate_scenario(seed, index)
    run = run_scenario(
        spec, databases=_databases_for(spec, sample_databases)
    )
    assert violations(run_checkers(run)) == []
    # Scenarios must exercise the federation, not no-op through it:
    # every query either completes, fails under faults, or is shed by
    # admission control (concurrent scenarios only).
    assert run.completed + run.failed + run.shed == len(spec.queries)
    assert run.oracle is not None
    assert set(run.sqlite_answers) == {
        o.sql for o in run.outcomes if o.status == "ok"
    }
    if spec.arrival is None:
        assert run.shed == 0
    # Under a staleness tolerance every dispatch carries its attempt's
    # fresh set — the evidence ``no-stale-dispatch`` audits.
    stamped = spec.staleness_tolerance_ms is not None
    assert all((d.fresh is not None) == stamped for d in run.dispatches)


def test_smoke_set_covers_both_arrival_modes():
    specs = [generate_scenario(s, i) for s, i in SMOKE_SCENARIOS]
    assert any(spec.arrival is None for spec in specs)
    assert any(spec.arrival is not None for spec in specs)


def test_rerun_is_byte_identical(sample_databases):
    # (42, 0) samples a concurrent arrival process, so this doubles as
    # the determinism proof for the event-scheduler path.
    spec = generate_scenario(42, 0)
    assert spec.arrival is not None
    databases = _databases_for(spec, sample_databases)
    first = run_scenario(spec, databases=databases)
    second = run_scenario(spec, databases=databases)
    for a, b in zip(first.outcomes, second.outcomes):
        assert (a.status, a.rows, a.response_ms, a.retries, a.servers) == (
            b.status,
            b.rows,
            b.response_ms,
            b.retries,
            b.servers,
        )
        assert a.fragment_ms == b.fragment_ms
    assert first.dispatches == second.dispatches
    assert first.cache_lookups == second.cache_lookups
    assert first.server_factors == second.server_factors
    assert first.ii_factor == second.ii_factor
    assert first.admission_decisions == second.admission_decisions


def _hedged_spec(**overrides):
    from repro.chaos import ArrivalSpec, FaultEvent, QuerySpec, ScenarioSpec

    base = generate_scenario(42, 0)
    assert base.arrival is not None  # reuse its sampled query classes
    options = dict(
        seed=42,
        index=0,
        topology="replica",
        queries=tuple(
            QuerySpec(q.query_type, q.instance_id, q.gap_ms, klass="gold")
            for q in base.queries
        ),
        faults=(
            FaultEvent(
                kind="latency",
                server="S1",
                start_ms=0.0,
                end_ms=20_000.0,
                magnitude=0.8,
            ),
        ),
        arrival=ArrivalSpec(process="poisson", rate_qps=60.0),
        hedge_after_ms=20.0,
    )
    options.update(overrides)
    return ScenarioSpec(**options)


def test_hedged_scenario_upholds_every_invariant():
    """A hedged concurrent replica scenario under a latency fault passes
    the full checker registry — including the *exact* (not float-
    tolerant) oracle row equality the hedged branch of
    ``oracle-equivalence`` demands."""
    spec = _hedged_spec()
    run = run_scenario(spec)
    assert violations(run_checkers(run)) == []
    assert run.completed + run.failed + run.shed == len(spec.queries)


def test_combined_scenario_upholds_every_invariant():
    """The same scenario with re-routing on beside hedging and a
    staleness tolerance that a mid-run origin write turns into a real
    constraint: every checker holds, second legs fire, and none of them
    reaches a replica the compilation rejected as stale."""
    from repro.chaos import FaultEvent

    hedged = _hedged_spec()
    lag = FaultEvent(
        kind="replica_lag", server="S1", start_ms=5.0, end_ms=5.0,
        table="orders",
    )
    spec = _hedged_spec(
        faults=hedged.faults + (lag,),
        reroute_batch_rows=8,
        staleness_tolerance_ms=50.0,
    )
    run = run_scenario(spec)
    assert violations(run_checkers(run)) == []
    assert run.completed == len(spec.queries)
    # More dispatches than fragments completed: second legs launched.
    fragments = sum(len(o.fragment_ms) for o in run.outcomes)
    assert len(run.dispatches) > fragments
    assert any(d.fresh is not None and "R1" not in d.fresh
               for d in run.dispatches)


def test_faults_actually_bite():
    """Across the smoke set, at least one scenario must degrade.

    A chaos harness whose fault schedules never intersect query
    execution tests nothing; this guards the horizon/gap calibration.
    """
    touched = 0
    for seed, index in SMOKE_SCENARIOS:
        spec = generate_scenario(seed, index)
        run = run_scenario(spec, with_oracle=False)
        if run.failed or any(o.retries for o in run.outcomes):
            touched += 1
    assert touched >= 1
