"""Wrapper base class.

A wrapper mediates between the integrator and one remote source: it
answers compile-time ``plans`` requests with candidate execution plans
and their estimated costs, and runtime ``execute`` requests with rows and
an observed response time.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..sqlengine import PlanCandidate, PhysicalPlan
from ..sim import RemoteExecution


class Wrapper:
    """What every source wrapper implements; the two optional probes
    default to "this source cannot"."""

    source_type: str

    @property
    def server_name(self) -> str:
        """Name of the remote source this wrapper fronts."""
        raise NotImplementedError

    def plans(self, fragment_sql: str, t_ms: float) -> List[PlanCandidate]:
        """Candidate plans + estimated costs for *fragment_sql*.

        Non-relational wrappers that cannot cost queries return
        candidates whose cost carries ``rows=0`` and zero times; the
        meta-wrapper substitutes a default estimate (and QCC's daemon
        probes refine it).  Raises ``ServerUnavailable`` when the source
        cannot be reached.
        """
        raise NotImplementedError

    def execute(self, plan: PhysicalPlan, t_ms: float) -> RemoteExecution:
        """Execute a previously returned plan at the source."""
        raise NotImplementedError

    def ping(self, t_ms: float) -> float:
        """Probe the source; returns the probe round-trip time in ms."""
        raise NotImplementedError

    def probe_ratio(self, t_ms: float) -> Optional[Tuple[float, float]]:
        """(estimated, observed) of a canned calibration query; None
        when the source cannot estimate (file sources)."""
        return None
