"""LRU cache of compiled federated plans: one entry, two validity horizons.

Every ``InformationIntegrator.submit()`` would otherwise re-run decompose
→ per-fragment wrapper compilation → global-plan enumeration, even for
the repeated query templates that dominate the paper's workload.  An
entry holds what a compilation produced, in two halves that go stale at
different moments:

* The **compiled** half — the decomposition — is a pure function of the
  query text and the nickname topology.  It lives while the registry's
  ``version`` is the one it was made under.
* The **priced** half — the ranked global plans — additionally depends on
  the excluded-server set, replica currency and QCC's calibration
  state.  Section 3.1 folds observations into active factors only at
  recalibration-cycle boundaries precisely so that surface is *stable
  between cycles*, so priced plans are reused verbatim while a
  :class:`~repro.core.epoch.CalibrationEpoch` counter that every
  cost-surface input bumps (recalibrations, availability transitions,
  reliability-rate changes, replica writes/syncs, topology changes) still
  reads what it read when they were priced.  A hit therefore reproduces
  byte-identical plans to a fresh compilation.

QCC *multiplies* wrapper estimates by a factor, so an epoch bump moves no
remote plan and no raw estimate: a stale priced half is re-priced over
the kept decomposition, not recompiled from SQL text.

Time-based replica staleness is the one input that moves *without* an
event: under the replica manager's staleness tolerance, a currently-fresh
replica silently crosses it as virtual time passes.  Plans priced under
a tolerance therefore also carry a ``valid_until_ms`` horizon — the first
instant any fresh-but-behind placement relevant to the query can cross
(``ReplicaManager.freshness_horizon``) — and expire on their own when the
clock reaches it.  The tolerance itself is fixed for a manager's lifetime
and attaching another manager clears the cache, so it is not part of the
key.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..obs import get_obs
from ..core.epoch import CalibrationEpoch
from .decomposer import DecomposedQuery
from .global_optimizer import GlobalPlan

#: Compiled queries the cache keeps (LRU).
MAXSIZE = 128

#: Cache key: (sql, excluded servers).  Everything else that influences
#: compilation is covered by the epoch and the freshness horizon.
PlanKey = Tuple[str, FrozenSet[str]]


def plan_key(
    sql: str, excluded_servers: Optional[FrozenSet[str]] = None
) -> PlanKey:
    """Normalise compile arguments into a cache key."""
    return (
        sql,
        frozenset(excluded_servers) if excluded_servers else frozenset(),
    )


@dataclass
class PlanCacheEntry:
    """One compiled query: the decomposition plus its ranked plans."""

    decomposed: DecomposedQuery
    #: Registry version *decomposed* was made under; it is reused for
    #: re-pricing only while the topology still is that one.
    topology: int
    plans: Tuple[GlobalPlan, ...]
    #: Epoch the plans were priced under; served only while it matches.
    epoch: int
    #: Absolute virtual time after which a replica-freshness crossing
    #: could change the candidate set; None = no time-based expiry.
    valid_until_ms: Optional[float]


class PlanCache:
    """Bounded LRU of compiled plans, validated against the epoch.

    The cache never *serves* stale state: a lookup whose entry was
    priced under an older epoch (or is past its freshness horizon)
    reports a miss, so the integrator re-prices transparently and plan-
    choice behavior is exactly that of an uncached integrator.  The
    entry keeps its slot: its decomposition does not depend on the
    epoch, and :meth:`decomposition` hands it to the re-pricing.
    """

    def __init__(self, epoch: CalibrationEpoch):
        self.epoch = epoch
        self._entries: "OrderedDict[PlanKey, PlanCacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    # -- lookup ----------------------------------------------------------

    def get(self, key: PlanKey, t_ms: float) -> Optional[PlanCacheEntry]:
        """The live entry for *key*, or None (a miss) if absent/stale."""
        obs = get_obs()
        entry = self._entries.get(key)
        if entry is not None and not self._is_live(entry, t_ms):
            self.invalidations += 1
            obs.metrics.counter("plan_cache_invalidations_total").inc()
            entry = None
        if entry is None:
            self.misses += 1
            obs.metrics.counter("plan_cache_misses_total").inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.metrics.counter("plan_cache_hits_total").inc()
        return entry

    def _is_live(self, entry: PlanCacheEntry, t_ms: float) -> bool:
        if entry.epoch != self.epoch.value:
            return False
        if entry.valid_until_ms is not None and t_ms >= entry.valid_until_ms:
            return False
        return True

    def decomposition(
        self, key: PlanKey, topology: int
    ) -> Optional[DecomposedQuery]:
        """What a stale entry for *key* still holds good: its
        decomposition, if it was made under *topology*."""
        entry = self._entries.get(key)
        if entry is not None and entry.topology == topology:
            return entry.decomposed
        return None

    # -- population ------------------------------------------------------

    def put(
        self,
        key: PlanKey,
        decomposed: DecomposedQuery,
        plans: List[GlobalPlan],
        valid_until_ms: Optional[float] = None,
        topology: int = 0,
    ) -> PlanCacheEntry:
        entry = PlanCacheEntry(
            decomposed=decomposed,
            topology=topology,
            plans=tuple(plans),
            epoch=self.epoch.value,
            valid_until_ms=valid_until_ms,
        )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        obs = get_obs()
        while len(self._entries) > MAXSIZE:
            self._entries.popitem(last=False)
            self.evictions += 1
            obs.metrics.counter("plan_cache_evictions_total").inc()
        obs.metrics.gauge("plan_cache_entries").set(len(self._entries))
        return entry

    def clear(self) -> int:
        """Drop every entry (counted as invalidations); returns how many."""
        dropped = len(self._entries)
        if dropped:
            self._entries.clear()
            self.invalidations += dropped
            obs = get_obs()
            obs.metrics.counter("plan_cache_invalidations_total").inc(dropped)
            obs.metrics.gauge("plan_cache_entries").set(0.0)
        return dropped

    # -- introspection ----------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        """A snapshot for dashboards/CLI output."""
        return {
            "entries": len(self._entries),
            "maxsize": MAXSIZE,
            "epoch": self.epoch.value,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }
