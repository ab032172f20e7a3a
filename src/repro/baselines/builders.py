"""Deployment factories for the comparison systems, and the calibrations
the two fixed assignments route with.

Every system is the same federation (:func:`build_federation`, whose
keyword options each factory forwards); they differ only in the
calibration that prices the options and picks the plan.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from ..core import Calibration
from ..fed import DecomposedQuery, FederationError, GlobalPlan
from ..harness.deployment import Deployment, build_federation
from ..workload import FIXED_ASSIGNMENT_1, PREFERRED_SERVER


class FixedAssignment(Calibration):
    """Identity costs, and each query label routed to the server
    designated at nickname-registration time (Fixed Assignment 1).

    The cheapest plan running every fragment on the assigned server
    wins; without one (an unlabelled query, or the server is down) the
    cheapest plan of all, as an administrator's manual failover would.
    """

    def __init__(self, assignment: Mapping[str, str]) -> None:
        super().__init__()
        self.assignment = dict(assignment)

    def server_for(self, label: Optional[str]) -> Optional[str]:
        return self.assignment.get(label)

    def recommend_global(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str],
        t_ms: float,
    ) -> GlobalPlan:
        if not plans:
            raise FederationError("no global plan to choose from")
        assigned = frozenset([self.server_for(label)])
        matching = [p for p in plans if p.servers == assigned]
        if matching:
            return min(matching, key=lambda p: p.total_cost)
        return plans[0]


class PreferredServer(FixedAssignment):
    """Every query, labelled or not, to one server (Fixed Assignment 2)."""

    def __init__(self, server: str) -> None:
        super().__init__({})
        self.server = server

    def server_for(self, label: Optional[str]) -> Optional[str]:
        return self.server


def fixed_assignment_deployment(**options) -> Deployment:
    """Fixed Assignment 1: per-query-type routing frozen at registration."""
    return build_federation(
        calibration=FixedAssignment(FIXED_ASSIGNMENT_1), **options
    )


def preferred_server_deployment(**options) -> Deployment:
    """Fixed Assignment 2: always route to the most powerful server."""
    return build_federation(
        calibration=PreferredServer(PREFERRED_SERVER), **options
    )


def uncalibrated_deployment(**options) -> Deployment:
    """Cost-based routing on raw estimates (DB2 II without QCC)."""
    return build_federation(calibration=Calibration(), **options)


def qcc_deployment(**options) -> Deployment:
    """The paper's system: II + meta-wrapper + QCC."""
    return build_federation(**options)
