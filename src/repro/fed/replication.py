"""Replica currency tracking and staleness-tolerant routing.

The paper's related work discusses substituting replicas "if their
staleness is within an application's tolerance" and criticises that
method for being optimization-time only.  This module provides the
runtime-aware version in QCC's spirit: writes at an origin make its
replicas stale, queries declare a tolerance, and candidate servers are
filtered by *current* replica currency at every compilation — so the
same query flips between replicas as syncs and writes happen.

Staleness here is time-based: a replica's staleness is the age of the
oldest origin write it has not yet received (0 when fully caught up).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..obs import get_obs
from .nicknames import FederationError, NicknameRegistry


@dataclass(frozen=True)
class ReplicaState:
    """Currency information for one (nickname, server) placement."""

    nickname: str
    server: str
    is_origin: bool
    synced_at_ms: Optional[float]
    staleness_ms: float


class ReplicaManager:
    """Tracks write and sync times per placement.

    The *origin* of a nickname is the placement writes are applied to;
    replicas catch up via :meth:`sync`.  The manager never moves data
    itself for write tracking — the deployment wires
    ``note_write`` next to its DML path — but :meth:`sync` does copy
    rows so a synced replica really is current.
    """

    def __init__(self, registry: NicknameRegistry):
        self.registry = registry
        self._origin: Dict[str, str] = {}
        self._first_unsynced_write: Dict[Tuple[str, str], Optional[float]] = {}
        self._synced_at: Dict[Tuple[str, str], Optional[float]] = {}
        self._last_write: Dict[str, Optional[float]] = {}
        self._epochs: List = []

    # -- epoch wiring -------------------------------------------------------

    def bind_epoch(self, epoch) -> None:
        """Bump *epoch* whenever replica currency changes.

        Writes and syncs move placements between the fresh and stale
        sets, which changes the candidate servers a staleness-tolerant
        compilation may consider — so compiled plans from before the
        event must be invalidated.
        """
        if epoch not in self._epochs:
            self._epochs.append(epoch)

    def _bump(self) -> None:
        for epoch in self._epochs:
            epoch.bump()

    # -- topology ----------------------------------------------------------

    def set_origin(self, nickname: str, server: str) -> None:
        if server not in self.registry.servers_for(nickname):
            raise FederationError(
                f"{server} holds no placement of {nickname!r}"
            )
        self._origin[nickname.lower()] = server

    def origin_of(self, nickname: str) -> str:
        origin = self._origin.get(nickname.lower())
        if origin is None:
            # Default: the first registered placement is the origin.
            origin = self.registry.placements(nickname)[0].server
        return origin

    # -- write / sync events ------------------------------------------------

    def note_write(self, nickname: str, t_ms: float) -> None:
        """An origin write happened: every replica falls behind."""
        key = nickname.lower()
        self._last_write[key] = t_ms
        origin = self.origin_of(nickname)
        fell_behind = False
        for placement in self.registry.placements(nickname):
            if placement.server == origin:
                continue
            pk = (key, placement.server)
            if self._first_unsynced_write.get(pk) is None:
                self._first_unsynced_write[pk] = t_ms
                fell_behind = True
        if fell_behind:
            # A caught-up replica just started aging; its tolerance
            # deadline is new information cached plans do not carry.
            self._bump()
            get_obs().timeline.event(
                t_ms, "replica-write", server=origin, detail=nickname
            )

    def sync(self, nickname: str, server: str, servers, t_ms: float) -> int:
        """Copy the nickname's current origin data onto *server*.

        *servers* maps server name -> RemoteServer.  Returns rows copied.
        """
        key = nickname.lower()
        origin_name = self.origin_of(nickname)
        if server == origin_name:
            return 0
        origin_db = servers[origin_name].database
        replica_db = servers[server].database
        remote_origin = self.registry.remote_table(nickname, origin_name)
        remote_replica = self.registry.remote_table(nickname, server)
        rows = list(origin_db.storage.table(remote_origin).scan())
        replica_table = replica_db.storage.table(remote_replica)
        replica_table.delete_rows(None)
        replica_table.insert_many(rows)
        replica_db.analyze(remote_replica)
        self._first_unsynced_write[(key, server)] = None
        self._synced_at[(key, server)] = t_ms
        self._bump()
        get_obs().timeline.event(
            t_ms,
            "replica-sync",
            server=server,
            detail=nickname,
            value=float(len(rows)),
        )
        return len(rows)

    # -- queries ----------------------------------------------------------

    def staleness_ms(self, nickname: str, server: str, t_ms: float) -> float:
        """Age of the oldest unsynced origin write (0 = current)."""
        key = nickname.lower()
        if server == self.origin_of(nickname):
            return 0.0
        first_unsynced = self._first_unsynced_write.get((key, server))
        if first_unsynced is None:
            return 0.0
        return max(0.0, t_ms - first_unsynced)

    def freshness_deadline(
        self, nickname: str, server: str, tolerance_ms: float
    ) -> Optional[float]:
        """Instant at which *server*'s copy of *nickname* crosses
        *tolerance_ms*, or None if it never will without a new write.

        Origins and fully-synced replicas have no deadline; a replica
        with an unsynced write at ``w`` stays fresh until exactly
        ``w + tolerance_ms``.
        """
        key = nickname.lower()
        if server == self.origin_of(nickname):
            return None
        first_unsynced = self._first_unsynced_write.get((key, server))
        if first_unsynced is None:
            return None
        return first_unsynced + tolerance_ms

    def worst_staleness(self, server: str, t_ms: float) -> float:
        """Worst replica staleness across *server*'s placements (ms).

        The federation timeline samples this per server at calibration
        boundaries, so staleness growth and sync catch-ups line up with
        calibration-factor and availability series.
        """
        worst = 0.0
        for nickname in self.registry.nicknames():
            for placement in self.registry.placements(nickname):
                if placement.server == server:
                    worst = max(
                        worst, self.staleness_ms(nickname, server, t_ms)
                    )
        return worst

    def state(self, nickname: str, server: str, t_ms: float) -> ReplicaState:
        key = nickname.lower()
        return ReplicaState(
            nickname=nickname,
            server=server,
            is_origin=server == self.origin_of(nickname),
            synced_at_ms=self._synced_at.get((key, server)),
            staleness_ms=self.staleness_ms(nickname, server, t_ms),
        )

    def fresh_servers(
        self,
        nicknames,
        t_ms: float,
        tolerance_ms: float,
    ) -> FrozenSet[str]:
        """Servers whose copies of *all* the nicknames are within
        *tolerance_ms* of the origin."""
        names = list(nicknames)
        if not names:
            return frozenset()
        fresh = set(self.registry.common_servers(names))
        for name in names:
            fresh = {
                server
                for server in fresh
                if self.staleness_ms(name, server, t_ms) <= tolerance_ms
            }
        return frozenset(fresh)
