"""Nickname registry: the federation's global schema.

A *nickname* is the local name under which a remote table is known to the
integrator (DB2 II terminology).  Each nickname maps to one or more
*placements* — the servers holding a copy, under the nickname's own
name — because the paper's setup replicates tables across the three
remote servers.  The registry also builds the II-side global catalog
(schemas + statistics, no data) that federated queries bind against.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

from ..sqlengine import Catalog, SqlError, TableDef, TableStats


class FederationError(SqlError):
    """Raised for federation-level configuration and planning errors."""


class NicknameRegistry:
    """Maps nicknames to their placements and serves the global catalog."""

    def __init__(self) -> None:
        #: nickname -> the servers holding a copy, in registration order.
        self._placements: Dict[str, List[str]] = {}
        self._global_catalog = Catalog()
        self._epochs: List = []
        #: Bumped by every placement change: a decomposition is valid for
        #: the version it was made under.
        self.version = 0

    def bind_epoch(self, epoch) -> None:
        """Bump *epoch* whenever the placement topology changes.

        A new placement widens the candidate-server set of every query
        touching that nickname, so plans compiled against the old
        topology must not be reused (see ``fed.plan_cache``).
        """
        if epoch not in self._epochs:
            self._epochs.append(epoch)

    def register(
        self,
        nickname: str,
        server: str,
        table_def: Optional[TableDef] = None,
    ) -> None:
        """Register (or add a replica placement for) *nickname*.

        ``table_def`` must be supplied on first registration: it seeds the
        global catalog with the nickname's schema and statistics.  Replica
        placements registered later may omit it.
        """
        key = nickname.lower()
        existing = self._placements.get(key)
        if existing is None:
            if table_def is None:
                raise FederationError(
                    f"first registration of nickname {nickname!r} "
                    "requires a table definition"
                )
            self._placements[key] = [server]
            self._global_catalog.register(
                TableDef(
                    name=nickname,
                    schema=table_def.schema.rename_table(nickname),
                    stats=TableStats(
                        row_count=table_def.stats.row_count,
                        column_stats=dict(table_def.stats.column_stats),
                    ),
                )
            )
            self._notify_topology_change()
            return
        if server in existing:
            raise FederationError(
                f"nickname {nickname!r} already placed on server {server!r}"
            )
        existing.append(server)
        self._notify_topology_change()

    def _notify_topology_change(self) -> None:
        self.version += 1
        for epoch in self._epochs:
            epoch.bump()

    def placements(self, nickname: str) -> List[str]:
        """The servers holding *nickname*, in registration order."""
        found = self._placements.get(nickname.lower())
        if not found:
            raise FederationError(f"unknown nickname {nickname!r}")
        return list(found)

    def servers_for(self, nickname: str) -> FrozenSet[str]:
        return frozenset(self.placements(nickname))

    def common_servers(self, nicknames: Iterable[str]) -> FrozenSet[str]:
        """Servers hosting *all* the given nicknames (co-location set)."""
        names = list(nicknames)
        if not names:
            return frozenset()
        common = self.servers_for(names[0])
        for name in names[1:]:
            common &= self.servers_for(name)
        return common

    def nicknames(self) -> List[str]:
        return sorted(self._placements)

    @property
    def global_catalog(self) -> Catalog:
        return self._global_catalog
