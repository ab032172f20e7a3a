"""Mutation-style self-tests: every bundled checker must be falsifiable.

Each test takes a known-good scenario run, plants exactly the corruption
its checker exists to catch, and asserts the checker reports it.  A
checker that cannot fail on seeded bad input provides no coverage — it
would wave through a real regression just as silently.
"""

import copy
import dataclasses

import pytest

from repro.chaos import (
    CacheLookupRecord,
    DispatchRecord,
    generate_scenario,
    run_checkers,
    run_scenario,
)
from repro.chaos.checkers import registered_checkers
from repro.chaos.runner import QueryOutcome
from repro.fed.admission import AdmissionDecision


@pytest.fixture(scope="module")
def clean_run(sample_databases):
    """One executed triple-topology scenario with no violations."""
    spec = generate_scenario(42, 0)
    assert spec.topology == "triple"
    run = run_scenario(spec, databases=sample_databases)
    assert not any(run_checkers(run).values())
    return run


def _mutant(clean_run):
    return copy.deepcopy(clean_run)


def test_oracle_equivalence_catches_row_divergence(clean_run):
    run = _mutant(clean_run)
    victim = next(o for o in run.outcomes if o.status == "ok" and o.rows)
    # Duplicate a row: same column types, different multiset.
    victim.rows.append(victim.rows[0])
    found = run_checkers(run, names=["oracle-equivalence"])
    assert found["oracle-equivalence"], "row corruption not detected"


def test_oracle_equivalence_catches_oracle_failure(clean_run):
    run = _mutant(clean_run)
    run.oracle[0].status = "failed"
    run.oracle[0].error = "planted"
    found = run_checkers(run, names=["oracle-equivalence"])
    assert any(
        "fault-free" in message for message in found["oracle-equivalence"]
    )


def _rerouting_mutant(clean_run, batch_rows=4):
    """Mutant whose spec opts into re-routing (nothing migrated yet)."""
    run = _mutant(clean_run)
    run.spec = dataclasses.replace(
        run.spec, reroute_batch_rows=batch_rows
    )
    return run


def test_reroute_oracle_equivalence_catches_merge_drift(clean_run):
    run = _rerouting_mutant(clean_run)
    victim = next(o for o in run.outcomes if o.status == "ok" and o.rows)
    victim.reroutes = 1
    # A seam defect: the merge dropped the last row of the prefix.
    victim.rows.pop(0)
    found = run_checkers(run, names=["oracle-equivalence"])
    assert found["oracle-equivalence"], "merge drift not detected"


def test_reroute_oracle_equivalence_catches_unreferenced_migration(
    clean_run,
):
    run = _rerouting_mutant(clean_run)
    victim = next(o for o in run.outcomes if o.status == "ok")
    victim.reroutes = 1
    oracle = next(o for o in run.oracle if o.index == victim.index)
    # A shed twin: legal for an unmigrated query, so this message is
    # the only one the checker gives.
    oracle.status = "shed"
    oracle.rows = []
    found = run_checkers(run, names=["oracle-equivalence"])
    assert any(
        "oracle counterpart" in message
        for message in found["oracle-equivalence"]
    )


def test_reroute_oracle_equivalence_catches_disabled_migration(clean_run):
    run = _mutant(clean_run)
    assert run.spec.reroute_batch_rows is None
    victim = next(o for o in run.outcomes if o.status == "ok")
    victim.reroutes = 1
    found = run_checkers(run, names=["oracle-equivalence"])
    assert any(
        "disabled" in message
        for message in found["oracle-equivalence"]
    )


def test_reroute_oracle_equivalence_passes_exact_merge(clean_run):
    run = _rerouting_mutant(clean_run)
    victim = next(o for o in run.outcomes if o.status == "ok" and o.rows)
    victim.reroutes = 1
    oracle = next(o for o in run.oracle if o.index == victim.index)
    victim.rows = [tuple(row) for row in oracle.rows]
    found = run_checkers(run, names=["oracle-equivalence"])
    assert not found["oracle-equivalence"]


def test_no_down_dispatch_catches_bad_dispatch(clean_run):
    run = _mutant(clean_run)
    run.dispatches.append(
        DispatchRecord(t_ms=123.0, server="S1", down_before=("S1", "S3"))
    )
    found = run_checkers(run, names=["no-down-dispatch"])
    assert found["no-down-dispatch"], "down-server dispatch not detected"


def test_no_stale_dispatch_catches_unadmitted_replica(clean_run):
    run = _mutant(clean_run)
    # Without a tolerance (fresh=None) any server is fair game.
    assert all(record.fresh is None for record in run.dispatches)
    run.dispatches.append(
        DispatchRecord(
            t_ms=123.0, server="R1", down_before=(), fresh=("S1",)
        )
    )
    found = run_checkers(run, names=["no-stale-dispatch"])
    assert found["no-stale-dispatch"], "stale-replica dispatch not detected"


def test_a_dispatch_checker_sees_its_case_only_on_an_excluded_candidate():
    fresh = DispatchRecord(0.0, "S1", ("S3",), ("S1", "R1"), ("S1", "R1"))
    assert not fresh.excluded_down and not fresh.excluded_stale
    stale = DispatchRecord(0.0, "S1", ("R1",), ("S1",), ("S1", "R1"))
    assert stale.excluded_down and stale.excluded_stale
    untolerated = DispatchRecord(0.0, "S1", (), None, ("S1", "R1"))
    assert not untolerated.excluded_stale


def test_calibration_bounds_catches_runaway_factor(clean_run):
    run = _mutant(clean_run)
    low, high = run.factor_bounds
    run.server_factors["S1"] = high * 10.0
    found = run_checkers(run, names=["calibration-bounds"])
    assert found["calibration-bounds"], "out-of-bounds factor not detected"


def test_calibration_bounds_catches_ii_factor(clean_run):
    run = _mutant(clean_run)
    low, _ = run.factor_bounds
    run.ii_factor = low / 2.0
    found = run_checkers(run, names=["calibration-bounds"])
    assert any(
        "II workload" in message
        for message in found["calibration-bounds"]
    )


def test_cache_epoch_catches_stale_hit(clean_run):
    run = _mutant(clean_run)
    run.cache_lookups.append(
        CacheLookupRecord(t_ms=50.0, entry_epoch=0, epoch_at_lookup=3)
    )
    found = run_checkers(run, names=["cache-epoch"])
    assert found["cache-epoch"], "stale plan-cache hit not detected"


def test_sqlite_answers_catches_tampered_row(clean_run):
    run = _mutant(clean_run)
    victim = next(o for o in run.outcomes if o.status == "ok" and o.rows)
    # One value of one row off by more than the float tolerance; the
    # fault-free twin is tampered alike, so only SQLite can tell.
    row = victim.rows[0]
    victim.rows[0] = row[:-1] + (row[-1] + 1,)
    twin = next(o for o in run.oracle if o.index == victim.index)
    twin.rows = list(victim.rows)
    found = run_checkers(run)
    assert found["sqlite-answers"], "tampered row not detected"
    assert not found["oracle-equivalence"]


def test_shed_only_over_budget_catches_headroom_shed(clean_run):
    run = _mutant(clean_run)
    # A rejection recorded while the bucket was full and the predicted
    # sojourn sat under the (infinite) budget: shedding without cause.
    run.admission_decisions.append(
        AdmissionDecision(
            klass="bronze",
            t_ms=10.0,
            admitted=False,
            tokens_before=5.0,
            predicted_ms=1.0,
            budget_ms=float("inf"),
            reason="no-tokens",
        )
    )
    found = run_checkers(run, names=["shed-only-over-budget"])
    assert found["shed-only-over-budget"], "headroom shed not detected"


def test_shed_only_over_budget_catches_unevidenced_shed(clean_run):
    run = _mutant(clean_run)
    # A shed outcome with no rejecting admission decision backing it.
    run.outcomes.append(
        QueryOutcome(
            index=len(run.outcomes),
            query_type="QT1",
            sql="SELECT 1",
            submitted_ms=0.0,
            status="shed",
            klass="bronze",
        )
    )
    found = run_checkers(run, names=["shed-only-over-budget"])
    assert any(
        "without evidence" in message
        for message in found["shed-only-over-budget"]
    )


def test_every_bundled_checker_has_a_mutation_test(clean_run):
    """No checker ships without a falsifiability proof in this module."""
    covered = {
        "oracle-equivalence",
        "sqlite-answers",
        "no-down-dispatch",
        "no-stale-dispatch",
        "calibration-bounds",
        "cache-epoch",
        "shed-only-over-budget",
    }
    assert set(registered_checkers()) == covered, (
        "a checker was added without a mutation-style self-test; "
        "add one here and list it in `covered`"
    )


def test_unknown_checker_name_rejected(clean_run):
    with pytest.raises(KeyError):
        run_checkers(clean_run, names=["not-a-checker"])
