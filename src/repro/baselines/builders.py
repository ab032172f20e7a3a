"""Deployment factories for the comparison systems.

Every system is the same federation (:func:`build_federation`, whose
keyword options each factory forwards); they differ only in the routing
policy and in whether a QCC is attached.
"""

from __future__ import annotations

from ..fed import FixedRouter, PreferredServerRouter
from ..harness.deployment import Deployment, build_federation
from ..workload import FIXED_ASSIGNMENT_1, PREFERRED_SERVER


def fixed_assignment_deployment(**options) -> Deployment:
    """Fixed Assignment 1: per-query-type routing frozen at registration."""
    router = FixedRouter(FIXED_ASSIGNMENT_1)
    return build_federation(with_qcc=False, router=router, **options)


def preferred_server_deployment(**options) -> Deployment:
    """Fixed Assignment 2: always route to the most powerful server."""
    router = PreferredServerRouter(PREFERRED_SERVER)
    return build_federation(with_qcc=False, router=router, **options)


def uncalibrated_deployment(**options) -> Deployment:
    """Cost-based routing on raw estimates (DB2 II without QCC)."""
    return build_federation(with_qcc=False, **options)


def qcc_deployment(**options) -> Deployment:
    """The paper's system: II + meta-wrapper + QCC."""
    return build_federation(with_qcc=True, **options)
