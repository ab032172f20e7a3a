"""Replica currency tracking and staleness-tolerant routing.

The paper's related work discusses substituting replicas "if their
staleness is within an application's tolerance" and criticises that
method for being optimization-time only.  This module provides the
runtime-aware version in QCC's spirit: writes at an origin make its
replicas stale, the deployment declares one tolerance (the manager's,
fixed for its lifetime), and candidate servers are filtered by *current*
replica currency at every compilation — so the same query flips between
replicas as syncs and writes happen.  This module alone decides which
placements are fresh and until when: the integrator asks the manager
for a fragment's fresh set and for the instant a compiled plan's set
could next change.  Another tolerance is another manager.

Staleness here is time-based: a replica's staleness is the age of the
oldest origin write it has not yet received (0 when fully caught up).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Tuple

from ..obs import get_obs
from .nicknames import FederationError, NicknameRegistry


class ReplicaManager:
    """Tracks each replica placement's oldest unsynced origin write.

    The *origin* of a nickname is the placement writes are applied to;
    replicas catch up via :meth:`sync`.  The manager never moves data
    itself for write tracking — the deployment wires
    ``note_write`` next to its DML path — but :meth:`sync` does copy
    rows so a synced replica really is current.

    *tolerance_ms* is the staleness a query may read; None admits every
    placement however stale.
    """

    def __init__(
        self, registry: NicknameRegistry, tolerance_ms: Optional[float] = None
    ):
        self.registry = registry
        self.tolerance_ms = tolerance_ms
        self._origin: Dict[str, str] = {}
        self._first_unsynced_write: Dict[Tuple[str, str], Optional[float]] = {}
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
            origin = self.registry.placements(nickname)[0]
        return origin

    # -- write / sync events ------------------------------------------------

    def note_write(self, nickname: str, t_ms: float) -> None:
        """An origin write happened: every replica falls behind."""
        key = nickname.lower()
        origin = self.origin_of(nickname)
        fell_behind = False
        for server in self.registry.placements(nickname):
            if server == origin:
                continue
            pk = (key, server)
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
        replica_db = servers[server].database
        copied = replica_db.load_copy(nickname, servers[origin_name].database)
        # DML does not refresh the origin's statistics, so the copied
        # definition may lag the copied rows: analyse them, as after any
        # load.
        replica_db.analyze(nickname)
        self._first_unsynced_write[(key, server)] = None
        self._bump()
        get_obs().timeline.event(
            t_ms,
            "replica-sync",
            server=server,
            detail=nickname,
            value=float(copied),
        )
        return copied

    # -- queries ----------------------------------------------------------

    def _behind_since(self, nickname: str, server: str) -> Optional[float]:
        """Instant of the oldest origin write *server*'s copy of
        *nickname* lacks; None when the copy is current."""
        if server == self.origin_of(nickname):
            return None
        return self._first_unsynced_write.get((nickname.lower(), server))

    def staleness_ms(self, nickname: str, server: str, t_ms: float) -> float:
        """Age of the oldest unsynced origin write (0 = current)."""
        since = self._behind_since(nickname, server)
        return 0.0 if since is None else max(0.0, t_ms - since)

    def worst_staleness(self, server: str, t_ms: float) -> float:
        """Worst replica staleness across *server*'s placements (ms).

        The federation timeline samples this per server at calibration
        boundaries, so staleness growth and sync catch-ups line up with
        calibration-factor and availability series.
        """
        worst = 0.0
        for nickname in self.registry.nicknames():
            if server in self.registry.placements(nickname):
                worst = max(worst, self.staleness_ms(nickname, server, t_ms))
        return worst

    def fresh_servers(self, nicknames, t_ms: float) -> Optional[FrozenSet[str]]:
        """Servers whose copies of *all* the nicknames are within the
        tolerance of the origin; None without a tolerance (every
        placement is admitted)."""
        tolerance = self.tolerance_ms
        if tolerance is None:
            return None
        names = list(nicknames)
        fresh = set(self.registry.common_servers(names))
        for name in names:
            fresh = {
                server
                for server in fresh
                if self.staleness_ms(name, server, t_ms) <= tolerance
            }
        return frozenset(fresh)

    def freshness_horizon(self, fragments, t_ms: float) -> Optional[float]:
        """Earliest instant after *t_ms* at which replica currency could
        change the fresh sets of *fragments*; None if it cannot without
        a write or sync (both bump the bound epochs).

        Between those events a placement's staleness only grows, so a
        fresh set can only shrink, and it shrinks exactly when a behind-
        but-fresh placement crosses the tolerance: a replica with an
        unsynced write at ``w`` stays fresh until ``w + tolerance``.
        Placements already past the tolerance re-enter only via a sync.
        """
        tolerance = self.tolerance_ms
        if tolerance is None:
            return None
        horizon: Optional[float] = None
        for fragment in fragments:
            for nickname in fragment.nicknames:
                for server in fragment.candidate_servers:
                    since = self._behind_since(nickname, server)
                    if since is None:
                        continue
                    deadline = since + tolerance
                    if deadline > t_ms and (
                        horizon is None or deadline < horizon
                    ):
                        horizon = deadline
        return horizon
