"""Global query optimization across fragment placements.

For every fragment the meta-wrapper supplies *options* — (server, remote
plan, estimated cost, calibrated cost) tuples.  The global optimizer
enumerates one option per fragment, adds the II-side merge cost, and
ranks the resulting global plans.  Fragments execute concurrently (II
dispatches all fragments, then merges), so a global plan's response time
estimate is ``max(fragment costs) + merge cost``.

When QCC is deployed the option costs arriving here are already
*calibrated*; the optimizer itself is oblivious to QCC — the paper's
transparency requirement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

from ..sqlengine import PhysicalPlan, PlanCost
from ..sqlengine.cost import ServerProfile
from .decomposer import DecomposedQuery, QueryFragment
from .merge import estimate_merge_cost
from .nicknames import FederationError


@dataclass(frozen=True)
class FragmentOption:
    """One way to execute one fragment: a plan at a server."""

    fragment: QueryFragment
    server: str
    plan: PhysicalPlan
    estimated: PlanCost
    calibrated: PlanCost

    @property
    def plan_signature(self) -> str:
        return self.plan.signature()

    @property
    def is_viable(self) -> bool:
        return math.isfinite(self.calibrated.total)


def describe_plan(
    plan_id: str,
    fragments: Iterable[Tuple[str, str, float, float]],
    merge_cost: float,
    total_cost: float,
) -> str:
    """One line for a global plan: its (fragment id, server, estimated,
    calibrated) choices and its merge and total costs.  Both
    :meth:`GlobalPlan.describe` and a finished query's description
    (:meth:`FederatedResult.describe`) print through it."""
    parts = ", ".join(
        f"{fragment_id}@{server} est={estimated:.2f} cal={calibrated:.2f}"
        for fragment_id, server, estimated, calibrated in fragments
    )
    return f"{plan_id}[{parts}] merge={merge_cost:.2f} total={total_cost:.2f}"


@dataclass(frozen=True)
class GlobalPlan:
    """A complete federated execution strategy."""

    plan_id: str
    choices: Tuple[FragmentOption, ...]
    merge_cost: PlanCost
    total_cost: float
    #: Per fragment id, every option this plan's compilation admitted —
    #: what survived the exclusion, replica-freshness and viability
    #: filters.  Carried with the plan (so it survives a plan-cache hit)
    #: because it is the only set a choice may be exchanged within:
    #: Section 4.1 substitution and second-leg targets both draw from it.
    alternatives: Mapping[str, Tuple[FragmentOption, ...]] = field(
        default_factory=dict, compare=False, repr=False
    )

    @property
    def servers(self) -> FrozenSet[str]:
        return frozenset(choice.server for choice in self.choices)

    def siblings_of(self, choice: FragmentOption) -> Tuple[FragmentOption, ...]:
        """The admitted options for *choice*'s fragment (it included)."""
        return self.alternatives.get(choice.fragment.fragment_id, ())

    def describe(self) -> str:
        return describe_plan(
            self.plan_id,
            (
                (c.fragment.fragment_id, c.server, c.estimated.total, c.calibrated.total)
                for c in self.choices
            ),
            self.merge_cost.total,
            self.total_cost,
        )


def enumerate_global_plans(
    decomposed: DecomposedQuery,
    options: Dict[str, Sequence[FragmentOption]],
    ii_profile: ServerProfile,
    ii_calibration_factor: float = 1.0,
    keep: int = 16,
) -> List[GlobalPlan]:
    """Enumerate and rank global plans, cheapest first.

    Options with infinite calibrated cost (servers QCC has marked
    unavailable) are dropped; if a fragment is left with no viable option
    a :class:`FederationError` is raised — the query cannot run.
    """
    per_fragment: List[List[FragmentOption]] = []
    alternatives: Dict[str, Tuple[FragmentOption, ...]] = {}
    for fragment in decomposed.fragments:
        fragment_options = [
            option
            for option in options.get(fragment.fragment_id, ())
            if option.is_viable
        ]
        if not fragment_options:
            raise FederationError(
                f"no viable server for fragment {fragment.fragment_id} "
                f"of query {decomposed.statement.sql()[:60]!r}"
            )
        alternatives[fragment.fragment_id] = tuple(fragment_options)
        per_fragment.append(sorted(fragment_options, key=lambda o: o.calibrated.total))

    plans: List[GlobalPlan] = []
    for combo in itertools.product(*per_fragment):
        fragment_rows = {
            choice.fragment.fragment_id: choice.calibrated.rows
            for choice in combo
        }
        merge = estimate_merge_cost(decomposed, fragment_rows, ii_profile)
        total = max(choice.calibrated.total for choice in combo)
        total += merge.total * ii_calibration_factor
        plans.append(
            GlobalPlan(
                plan_id="",
                choices=tuple(combo),
                merge_cost=merge,
                total_cost=total,
            )
        )
    plans.sort(key=lambda p: p.total_cost)
    return [
        replace(plan, plan_id=f"p{index + 1}", alternatives=alternatives)
        for index, plan in enumerate(plans[:keep])
    ]


def eliminate_dominated(plans: Sequence[GlobalPlan]) -> List[GlobalPlan]:
    """Drop plans dominated by a cheaper plan on the same server set.

    Section 4.2: "for global query plans whose fragment queries are
    executed on the same set of servers, QCC picks the cheapest plan."
    """
    best_by_servers: Dict[FrozenSet[str], GlobalPlan] = {}
    for plan in plans:
        key = plan.servers
        current = best_by_servers.get(key)
        if current is None or plan.total_cost < current.total_cost:
            best_by_servers[key] = plan
    survivors = sorted(best_by_servers.values(), key=lambda p: p.total_cost)
    return survivors


def cluster_near_cost(
    plans: Sequence[GlobalPlan], band: float = 0.2
) -> List[GlobalPlan]:
    """Plans whose cost is within *band* of the cheapest (Section 4.2)."""
    if not plans:
        return []
    ordered = sorted(plans, key=lambda p: p.total_cost)
    cheapest = ordered[0].total_cost
    threshold = cheapest * (1.0 + band)
    return [p for p in ordered if p.total_cost <= threshold]
