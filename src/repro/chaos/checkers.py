"""Machine-verifiable federation invariants, run after every scenario.

Each checker is a pure function over a :class:`~repro.chaos.runner.ScenarioRun`
returning a list of violation messages (empty = invariant held).  The
registry exists so the CLI, the pytest bridge and the shrinker all agree
on what "the scenario failed" means, and so the mutation-style self-tests
can enumerate every bundled checker and prove each one *can* fail — a
checker that silently passes on known-bad input is worse than none.

Bundled invariants:

``oracle-equivalence``
    Every query the chaos run completed must return the rows the
    fault-free oracle rerun returned (multiset equality; float-tolerant,
    but *byte-identical* when hedging or re-routing is on — a backup leg
    or a primary-prefix + replica-tail merge may never change the
    answer); the oracle itself — a run with no faults — must never fail;
    no query may report a migration while re-routing is off, and a
    migrated query must have a twin answer to be held against.
``sqlite-answers``
    Every query the chaos run completed must return the rows SQLite
    returns for its SQL text over a copy of the same tables
    (``rows_close_unordered``): an answer oracle that is not this code.
``no-down-dispatch``
    The integrator never dispatches a fragment to a server the
    availability monitor had already marked down at dispatch time.
``no-stale-dispatch``
    Under a staleness tolerance, no fragment — first choice, Section 4.1
    substitute, hedge backup or migration target — is dispatched to a
    server whose copy the dispatching attempt's own compilation found
    staler than the tolerance.
``calibration-bounds``
    Every calibration factor QCC serves (per-server, per-fragment,
    probe-derived initial, and the II workload factor) stays inside the
    calibrator's clamp bounds (``MIN_FACTOR``, ``MAX_FACTOR``).
``cache-epoch``
    A plan-cache hit is only ever served while the entry's compilation
    epoch still equals the live calibration epoch — hits never survive
    an epoch bump.
``shed-only-over-budget``
    Admission control only sheds a query when its class genuinely lacked
    headroom at decision time — the token bucket was empty or the
    backlog-predicted sojourn exceeded the class latency budget.  A shed
    issued while both axes had headroom is overload protection firing
    without overload, and every shed outcome must be backed by a
    recorded admission decision.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..fed.admission import shed_violations
from ..sqlengine import rows_close_unordered, rows_equal_unordered
from .runner import ScenarioRun

CheckerFn = Callable[[ScenarioRun], List[str]]

_REGISTRY: Dict[str, CheckerFn] = {}


#: Whether a run gave each bundled checker its case (``repro chaos`` counts
#: the scenarios that did: a checker that never sees its case proves nothing).
CASES: Dict[str, Callable[[ScenarioRun], bool]] = {
    "oracle-equivalence": lambda run: run.oracle is not None and run.completed > 0,
    "sqlite-answers": lambda run: run.completed > 0,
    "no-down-dispatch": lambda run: any(r.excluded_down for r in run.dispatches),
    "no-stale-dispatch": lambda run: any(r.excluded_stale for r in run.dispatches),
    "calibration-bounds": lambda run: bool(run.server_factors or run.fragment_factors),
    "cache-epoch": lambda run: bool(run.cache_lookups),
    "shed-only-over-budget": lambda run: run.shed > 0,
}


def register_checker(name: str) -> Callable[[CheckerFn], CheckerFn]:
    """Register *fn* under *name*; later registrations override (tests
    register known-bad mutants under fresh names instead)."""

    def deco(fn: CheckerFn) -> CheckerFn:
        _REGISTRY[name] = fn
        return fn

    return deco


def registered_checkers() -> Dict[str, CheckerFn]:
    return dict(_REGISTRY)


def run_checkers(
    run: ScenarioRun, names: Optional[Sequence[str]] = None
) -> Dict[str, List[str]]:
    """Run the (selected) registry; returns name -> violations."""
    selected = names if names is not None else sorted(_REGISTRY)
    verdicts: Dict[str, List[str]] = {}
    for name in selected:
        try:
            checker = _REGISTRY[name]
        except KeyError:
            raise KeyError(
                f"unknown checker {name!r}; "
                f"registered: {sorted(_REGISTRY)}"
            ) from None
        verdicts[name] = checker(run)
    return verdicts


def violations(verdicts: Mapping[str, List[str]]) -> List[str]:
    """Flatten a verdict map into ``checker: message`` lines."""
    return [
        f"{name}: {message}"
        for name in sorted(verdicts)
        for message in verdicts[name]
    ]


# -- bundled checkers --------------------------------------------------------


@register_checker("oracle-equivalence")
def check_oracle_equivalence(run: ScenarioRun) -> List[str]:
    problems: List[str] = []
    rerouting = run.spec.reroute_batch_rows is not None
    if not rerouting:
        # An opt-in mechanism fired without opt-in.
        for outcome in run.outcomes:
            if outcome.reroutes:
                problems.append(
                    f"query #{outcome.index} ({outcome.query_type}) "
                    f"reported {outcome.reroutes} migration(s) while "
                    "re-routing was disabled"
                )
    if run.oracle is None:
        return problems
    # Hedged and re-routing runs are held to *exact* row equality: a
    # backup replica (or a migration target finishing a scan) must
    # return the same bytes the primary would have — any drift means
    # the mechanism changed the answer, not just the latency.
    exact = rerouting or run.spec.hedge_after_ms is not None
    oracle_by_index = {outcome.index: outcome for outcome in run.oracle}
    for outcome in run.outcomes:
        reference = oracle_by_index.get(outcome.index)
        if reference is None:
            problems.append(
                f"query #{outcome.index} has no oracle counterpart"
            )
            continue
        if reference.status == "failed":
            problems.append(
                f"oracle (fault-free) run failed on query #{outcome.index} "
                f"({outcome.query_type}): {reference.error}"
            )
            continue
        if outcome.status != "ok":
            # Failing (or being shed) under faults is legitimate
            # degradation, not a correctness violation.
            continue
        if reference.status == "shed":
            # The oracle's own admission controller shed this query —
            # pure-concurrency overload, legal even without faults — so
            # there are no oracle rows; a migrated query needs them.
            if outcome.reroutes:
                problems.append(
                    f"query #{outcome.index} ({outcome.query_type}) "
                    "migrated but its fault-free oracle counterpart is "
                    "shed — no reference answer to hold the merge against"
                )
            continue
        if exact:
            equivalent = rows_equal_unordered(outcome.rows, reference.rows)
        else:
            equivalent = rows_close_unordered(outcome.rows, reference.rows)
        if not equivalent:
            problems.append(
                f"query #{outcome.index} ({outcome.query_type}) returned "
                f"{len(outcome.rows)} rows differing from the fault-free "
                f"oracle's {len(reference.rows)}"
            )
    return problems


@register_checker("sqlite-answers")
def check_sqlite_answers(run: ScenarioRun) -> List[str]:
    problems: List[str] = []
    for outcome in run.outcomes:
        if outcome.status != "ok":
            continue
        expected = run.sqlite_answers[outcome.sql]
        if not rows_close_unordered(outcome.rows, expected):
            problems.append(
                f"query #{outcome.index} ({outcome.query_type}) returned "
                f"{len(outcome.rows)} rows differing from SQLite's "
                f"{len(expected)}"
            )
    return problems


@register_checker("no-down-dispatch")
def check_no_down_dispatch(run: ScenarioRun) -> List[str]:
    problems: List[str] = []
    for record in run.dispatches:
        if record.server in record.down_before:
            problems.append(
                f"fragment dispatched to {record.server} at "
                f"t={record.t_ms:.1f}ms while the availability monitor "
                f"had it marked down ({', '.join(record.down_before)})"
            )
    return problems


@register_checker("no-stale-dispatch")
def check_no_stale_dispatch(run: ScenarioRun) -> List[str]:
    problems: List[str] = []
    for record in run.dispatches:
        if record.fresh is not None and record.server not in record.fresh:
            problems.append(
                f"fragment dispatched to {record.server} at "
                f"t={record.t_ms:.1f}ms although its attempt's compilation "
                f"admitted only the fresh copies on "
                f"({', '.join(record.fresh)})"
            )
    return problems


@register_checker("calibration-bounds")
def check_calibration_bounds(run: ScenarioRun) -> List[str]:
    low, high = run.factor_bounds
    problems: List[str] = []

    def audit(label: str, factor: float) -> None:
        if not low <= factor <= high:
            problems.append(
                f"{label} factor {factor:g} outside clamp bounds "
                f"[{low:g}, {high:g}]"
            )

    for server, factor in sorted(run.server_factors.items()):
        audit(f"server {server}", factor)
    for (server, signature), factor in sorted(run.fragment_factors.items()):
        audit(f"fragment ({server}, {signature[:40]!r})", factor)
    for server, factor in sorted(run.initial_factors.items()):
        audit(f"initial {server}", factor)
    audit("II workload", run.ii_factor)
    return problems


@register_checker("cache-epoch")
def check_cache_epoch(run: ScenarioRun) -> List[str]:
    problems: List[str] = []
    for record in run.cache_lookups:
        if record.entry_epoch != record.epoch_at_lookup:
            problems.append(
                f"plan-cache hit at t={record.t_ms:.1f}ms served an entry "
                f"from epoch {record.entry_epoch} while the calibration "
                f"epoch was {record.epoch_at_lookup}"
            )
    return problems


@register_checker("shed-only-over-budget")
def check_shed_only_over_budget(run: ScenarioRun) -> List[str]:
    problems = shed_violations(run.admission_decisions)
    shed_outcomes = sum(1 for o in run.outcomes if o.status == "shed")
    shed_decisions = sum(
        1 for d in run.admission_decisions if not d.admitted
    )
    if shed_outcomes > shed_decisions:
        problems.append(
            f"{shed_outcomes} queries were shed but only "
            f"{shed_decisions} rejecting admission decisions were "
            "recorded — a shed without evidence"
        )
    return problems
