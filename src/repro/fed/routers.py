"""Global plan selection strategies.

The integrator delegates the final "which global plan runs" decision to a
router — always, and only, through :meth:`Router.choose`.  The default
is :class:`QCCRouter`, which defers to the calibration's global
recommendation: QCC's rotation, or the cheapest plan under the identity
calibration of a federation without one.  An explicitly supplied router
wins: the calibration then still prices the costs the router ranks and
records every execution, it just no longer picks the plan.

The other routers model the baselines of Section 5:

* :class:`FixedRouter` — the "typical federated information system in
  which how federated queries are distributed to remote servers are fixed
  and pre-determined in the phase of nickname definition registration"
  (Fixed Assignment 1 in our benchmarks).
* :class:`PreferredServerRouter` — always use one designated (most
  powerful) server when possible (Fixed Assignment 2).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .decomposer import DecomposedQuery
from .global_optimizer import GlobalPlan
from .nicknames import FederationError


class Router:
    """Strategy interface for choosing among enumerated global plans."""

    def choose(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str] = None,
        t_ms: float = 0.0,
    ) -> GlobalPlan:
        raise NotImplementedError


def _cheapest(
    plans: Sequence[GlobalPlan], server: Optional[str] = None
) -> GlobalPlan:
    """The cheapest plan running every fragment on *server*; without
    one (or without a *server*) the cheapest plan of all."""
    if not plans:
        raise FederationError("no global plan to choose from")
    if server is not None:
        matching = [p for p in plans if p.servers == frozenset([server])]
        if matching:
            return min(matching, key=lambda p: p.total_cost)
    return plans[0]


class QCCRouter(Router):
    """Defer to the calibration's recommendation (Section 4.2): the
    cheapest calibrated plan, rotated across its near-cost cluster."""

    def __init__(self, qcc) -> None:
        self.qcc = qcc

    def choose(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str] = None,
        t_ms: float = 0.0,
    ) -> GlobalPlan:
        return self.qcc.recommend_global(decomposed, plans, t_ms)


class FixedRouter(Router):
    """Route each query label to a statically assigned server.

    *assignment* maps a query label (e.g. ``"QT1"``) to the server that
    was designated at nickname-registration time.  Plans running every
    fragment on the assigned server are preferred; if none exists (e.g.
    the server is down), the router falls back to the cheapest plan, as
    an administrator's manual failover would.
    """

    def __init__(self, assignment: Mapping[str, str]):
        self.assignment = dict(assignment)

    def choose(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str] = None,
        t_ms: float = 0.0,
    ) -> GlobalPlan:
        return _cheapest(plans, self.assignment.get(label or ""))


class PreferredServerRouter(Router):
    """Always route to one preferred server when it can serve the query."""

    def __init__(self, server: str):
        self.server = server

    def choose(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str] = None,
        t_ms: float = 0.0,
    ) -> GlobalPlan:
        return _cheapest(plans, self.server)
