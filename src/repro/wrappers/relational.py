"""Relational wrapper: fronts a :class:`~repro.sim.RemoteServer`.

The wrapper translates fragment SQL from the nickname namespace into the
server's own table names (nickname placements may use different remote
table names), forwards explain requests, and executes selected plans.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..sqlengine import PhysicalPlan, PlanCandidate, parse
from ..sqlengine.parser import JoinClause, SelectStatement, TableRef
from ..sim import RemoteExecution, RemoteServer
from .base import Wrapper


def rename_tables(
    statement: SelectStatement, mapping: Mapping[str, str]
) -> SelectStatement:
    """Rewrite table names via *mapping*, preserving binding names.

    A renamed table keeps its original binding as an alias so that every
    qualified column reference in the statement stays valid.
    """

    def rename(ref: TableRef) -> TableRef:
        remote = mapping.get(ref.name.lower())
        if remote is None or remote == ref.name:
            return ref
        return TableRef(name=remote, alias=ref.binding)

    return SelectStatement(
        items=statement.items,
        tables=tuple(rename(t) for t in statement.tables),
        joins=tuple(
            JoinClause(rename(j.table), j.condition, j.outer)
            for j in statement.joins
        ),
        where=statement.where,
        group_by=statement.group_by,
        having=statement.having,
        order_by=statement.order_by,
        limit=statement.limit,
        distinct=statement.distinct,
    )


class RelationalWrapper(Wrapper):
    """Wrapper for a relational remote server."""

    source_type = "relational"

    def __init__(
        self,
        server: RemoteServer,
        nickname_map: Optional[Mapping[str, str]] = None,
    ):
        """*nickname_map* maps lowercased nickname -> remote table name."""
        self.server = server
        self._nickname_map: Dict[str, str] = {
            k.lower(): v for k, v in (nickname_map or {}).items()
        }

    @property
    def server_name(self) -> str:
        return self.server.name

    def translate(self, fragment_sql: str) -> str:
        if not self._nickname_map:
            return fragment_sql
        statement = rename_tables(parse(fragment_sql), self._nickname_map)
        return statement.sql()

    def plans(self, fragment_sql: str, t_ms: float) -> List[PlanCandidate]:
        return self.server.explain(self.translate(fragment_sql), t_ms)

    def execute(self, plan: PhysicalPlan, t_ms: float) -> RemoteExecution:
        return self.server.execute_plan(plan, t_ms)

    def ping(self, t_ms: float) -> float:
        return self.server.ping(t_ms)

    def probe_ratio(self, t_ms: float):
        """(estimated, observed) of a canned calibration query."""
        return self.server.probe_query(t_ms)
