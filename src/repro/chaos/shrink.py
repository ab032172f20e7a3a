"""Schedule shrinking: bisect a failing scenario to a minimal reproducer.

When a scenario trips an invariant, the raw spec is a poor bug report —
six fault events and eight queries obscure which interaction actually
broke the federation.  :func:`shrink_schedule` runs ddmin-style delta
debugging over the fault schedule (and then the workload): repeatedly
re-execute candidate sub-schedules, keep any candidate that still fails,
and stop when no single event or query can be removed.  Because
scenarios are pure functions of their spec, every candidate run is
deterministic and the minimum found is a genuine reproducer.

The result carries a one-line ``repro chaos --seed N --repro '<spec>'``
command; pasting it reruns exactly the minimal scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .scenario import ScenarioSpec

#: Probe: returns a failure message for a failing spec, None otherwise.
FailureProbe = Callable[[ScenarioSpec], Optional[str]]


@dataclass
class ShrinkResult:
    """Outcome of a shrink: the minimal spec and how we got there."""

    spec: ScenarioSpec
    message: str
    attempts: int
    #: True when the attempt budget ran out before reaching a fixpoint.
    budget_exhausted: bool = False

    @property
    def command(self) -> str:
        return repro_command(self.spec)


def repro_command(spec: ScenarioSpec) -> str:
    """The one-line CLI invocation reproducing *spec* exactly."""
    return (
        f"repro chaos --seed {spec.seed} --repro '{spec.canonical_json()}'"
    )


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    @property
    def exhausted(self) -> bool:
        return self.used >= self.limit

    def spend(self) -> None:
        self.used += 1


def _ddmin(
    items: Sequence,
    still_fails: Callable[[List], Optional[str]],
    budget: _Budget,
    min_items: int = 0,
) -> Tuple[List, Optional[str]]:
    """Classic ddmin over *items*; returns (reduced items, last message).

    ``still_fails`` re-executes the scenario with a candidate subset and
    returns the failure message if the failure persists.
    """
    current = list(items)
    message: Optional[str] = None
    granularity = 2
    while len(current) > min_items and not budget.exhausted:
        chunk = max(1, len(current) // granularity)
        reduced = False
        start = 0
        while start < len(current) and not budget.exhausted:
            candidate = current[:start] + current[start + chunk:]
            if len(candidate) < min_items:
                start += chunk
                continue
            budget.spend()
            failure = still_fails(candidate)
            if failure is not None:
                current = candidate
                message = failure
                granularity = max(granularity - 1, 2)
                reduced = True
                # Restart the sweep over the (shorter) list.
                start = 0
                continue
            start += chunk
        if not reduced:
            if chunk <= 1:
                break
            granularity = min(granularity * 2, len(current))
    return current, message


def shrink_schedule(
    spec: ScenarioSpec,
    failing: FailureProbe,
    max_attempts: int = 200,
) -> ShrinkResult:
    """Minimise *spec* while ``failing(spec)`` keeps reporting a failure.

    *failing* is typically ``run_scenario`` + ``run_checkers`` wrapped
    into a probe; the planted-failure self-tests pass structural
    predicates instead.  ``max_attempts`` bounds the number of candidate
    re-executions (each one is a full deterministic scenario run).
    """
    initial_message = failing(spec)
    if initial_message is None:
        raise ValueError(
            "shrink_schedule called with a spec that does not fail"
        )
    budget = _Budget(max_attempts)
    current = spec
    message = initial_message

    faults, fault_message = _ddmin(
        current.faults,
        lambda candidate: failing(
            replace(current, faults=tuple(candidate))
        ),
        budget,
    )
    current = replace(current, faults=tuple(faults))
    message = fault_message or message

    if not budget.exhausted:
        queries, query_message = _ddmin(
            current.queries,
            lambda candidate: failing(
                replace(current, queries=tuple(candidate))
            ),
            budget,
        )
        current = replace(current, queries=tuple(queries))
        message = query_message or message

    return ShrinkResult(
        spec=current,
        message=message,
        attempts=budget.used,
        budget_exhausted=budget.exhausted,
    )
