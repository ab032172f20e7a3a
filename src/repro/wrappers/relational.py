"""Relational wrapper: fronts a :class:`~repro.sim.RemoteServer`.

The wrapper forwards fragment SQL (a nickname names its remote table
itself) to the server's explain, and executes selected plans.
"""

from __future__ import annotations

from typing import List

from ..sqlengine import PhysicalPlan, PlanCandidate
from ..sim import RemoteExecution, RemoteServer
from .base import Wrapper


class RelationalWrapper(Wrapper):
    """Wrapper for a relational remote server."""

    source_type = "relational"

    def __init__(self, server: RemoteServer):
        self.server = server

    @property
    def server_name(self) -> str:
        return self.server.name

    def translate(self, fragment_sql: str) -> str:
        """The fragment in the server's table names: a nickname is its
        remote table's name, so the text passes through unchanged.  The
        repo benchmark's layer timer counts calls to this method."""
        return fragment_sql

    def plans(self, fragment_sql: str, t_ms: float) -> List[PlanCandidate]:
        return self.server.explain(self.translate(fragment_sql), t_ms)

    def execute(self, plan: PhysicalPlan, t_ms: float) -> RemoteExecution:
        return self.server.execute_plan(plan, t_ms)

    def ping(self, t_ms: float) -> float:
        return self.server.ping(t_ms)

    def probe_ratio(self, t_ms: float):
        """(estimated, observed) of a canned calibration query."""
        return self.server.probe_query(t_ms)
