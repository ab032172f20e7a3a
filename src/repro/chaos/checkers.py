"""Machine-verifiable federation invariants, run after every scenario.

Each checker is a pure function over a :class:`~repro.chaos.runner.ScenarioRun`
returning a list of violation messages (empty = invariant held).  The
registry exists so the CLI, the pytest bridge and the shrinker all agree
on what "the scenario failed" means, and so the mutation-style self-tests
can enumerate every bundled checker and prove each one *can* fail — a
checker that silently passes on known-bad input is worse than none.

Bundled invariants:

``oracle-equivalence``
    Every query the chaos run completed must return exactly the rows the
    fault-free oracle rerun returned (multiset equality, float-tolerant);
    and the oracle itself — a run with no faults — must never fail.
``reroute-oracle-equivalence``
    A query that migrated mid-scan (bounded batch re-routing) must
    return rows *byte-identical* to the fault-free oracle's — the
    primary-prefix + replica-tail merge may never change the answer —
    and no query may report a migration while the dimension is off.
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
    configured ``CalibratorConfig`` clamp bounds.
``cache-epoch``
    A plan-cache hit is only ever served while the entry's compilation
    epoch still equals the live calibration epoch — hits never survive
    an epoch bump.
``engine-equivalence``
    Rerunning the identical fault schedule on the row engine reproduces
    the columnar engine's behaviour bit-for-bit: same per-query status,
    rows, retries, chosen servers, and (WorkMeter-derived) response and
    per-fragment times.
``shed-only-over-budget``
    Admission control only sheds a query when its class genuinely lacked
    headroom at decision time — the token bucket was empty or the
    backlog-predicted sojourn exceeded the class latency budget.  A shed
    issued while both axes had headroom is overload protection firing
    without overload, and every shed outcome must be backed by a
    recorded admission decision.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from ..fed.admission import shed_violations
from ..sqlengine import rows_close_unordered, rows_equal_unordered
from .runner import QueryOutcome, ScenarioRun

CheckerFn = Callable[[ScenarioRun], List[str]]

_REGISTRY: Dict[str, CheckerFn] = {}


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
    if run.oracle is None:
        return []
    problems: List[str] = []
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
            # pure-concurrency overload, legal even without faults.
            # There are no oracle rows to compare against.
            continue
        # Hedged and re-routing runs are held to *exact* row equality: a
        # backup replica (or a migration target finishing a scan) must
        # return the same bytes the primary would have — any drift means
        # the mechanism changed the answer, not just the latency.
        if (
            run.spec.hedge_after_ms is not None
            or run.spec.reroute_batch_rows is not None
        ):
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


@register_checker("reroute-oracle-equivalence")
def check_reroute_oracle_equivalence(run: ScenarioRun) -> List[str]:
    """Mid-query migrations must be byte-invisible in the answer.

    With re-routing enabled, every query that actually migrated must
    return *exactly* (not merely approximately) the rows the fault-free
    oracle returned — a migration stitches a primary prefix onto a
    replica tail, and any drift at the seam is a wrong answer, not
    degradation.  With the dimension off, a query reporting a migration
    is itself the violation: an opt-in mechanism fired without opt-in.
    """
    problems: List[str] = []
    if run.spec.reroute_batch_rows is None:
        for outcome in run.outcomes:
            if outcome.reroutes:
                problems.append(
                    f"query #{outcome.index} ({outcome.query_type}) "
                    f"reported {outcome.reroutes} migration(s) while "
                    "re-routing was disabled"
                )
        return problems
    if run.oracle is None:
        return []
    oracle_by_index = {outcome.index: outcome for outcome in run.oracle}
    for outcome in run.outcomes:
        if outcome.status != "ok" or not outcome.reroutes:
            continue
        reference = oracle_by_index.get(outcome.index)
        if reference is None or reference.status != "ok":
            status = "missing" if reference is None else reference.status
            problems.append(
                f"query #{outcome.index} ({outcome.query_type}) migrated "
                f"but its fault-free oracle counterpart is {status} — "
                "no reference answer to hold the merge against"
            )
            continue
        if not rows_equal_unordered(outcome.rows, reference.rows):
            problems.append(
                f"query #{outcome.index} ({outcome.query_type}) migrated "
                f"mid-scan and returned {len(outcome.rows)} rows that are "
                f"not byte-identical to the oracle's {len(reference.rows)}"
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


def _engine_mismatch(
    columnar: QueryOutcome, row: QueryOutcome
) -> Optional[str]:
    if columnar.status != row.status:
        return (
            f"status diverged (columnar={columnar.status}, row={row.status})"
        )
    if columnar.status != "ok":
        return None
    if not rows_close_unordered(columnar.rows, row.rows):
        return "result rows diverged"
    if columnar.retries != row.retries:
        return (
            f"retries diverged (columnar={columnar.retries}, row={row.retries})"
        )
    if columnar.reroutes != row.reroutes:
        return (
            f"reroutes diverged (columnar={columnar.reroutes}, "
            f"row={row.reroutes})"
        )
    if columnar.servers != row.servers:
        return (
            f"routing diverged (columnar={columnar.servers}, row={row.servers})"
        )
    if not math.isclose(
        columnar.response_ms, row.response_ms, rel_tol=1e-9, abs_tol=1e-9
    ):
        return (
            f"response time diverged (columnar={columnar.response_ms!r}, "
            f"row={row.response_ms!r})"
        )
    if set(columnar.fragment_ms) != set(row.fragment_ms):
        return "fragment sets diverged"
    for fragment_id, observed in columnar.fragment_ms.items():
        if not math.isclose(
            observed, row.fragment_ms[fragment_id], rel_tol=1e-9, abs_tol=1e-9
        ):
            return f"fragment {fragment_id} observed time diverged"
    return None


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


@register_checker("engine-equivalence")
def check_engine_equivalence(run: ScenarioRun) -> List[str]:
    if run.row_engine is None:
        return []
    problems: List[str] = []
    row_by_index = {outcome.index: outcome for outcome in run.row_engine}
    for outcome in run.outcomes:
        row = row_by_index.get(outcome.index)
        if row is None:
            problems.append(
                f"query #{outcome.index} missing from the row-engine rerun"
            )
            continue
        mismatch = _engine_mismatch(outcome, row)
        if mismatch is not None:
            problems.append(
                f"query #{outcome.index} ({outcome.query_type}): {mismatch}"
            )
    return problems
