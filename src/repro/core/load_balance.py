"""Load distribution (Section 4).

Two granularities:

* **Fragment level** (4.1): when the plan II selected for a fragment has
  *identical* alternatives on other servers with calibrated costs within
  a band (default 20%), QCC clusters them and rotates round-robin
  across the cluster, as the paper says.  The cluster is ordered by
  **rendezvous (HRW) hashing** on ``(fragment_signature, server)``,
  which only decides where a rotation *starts*: a fragment's first
  dispatch goes to its HRW home, so distinct fragments spread uniformly
  across the cluster before any of them repeats, and a hot one then
  visits every member in rank order.
  The same ranked cluster names the replica a second leg goes to (hedge
  backup, mid-query migration target — see ``repro.fed.concurrent``):
  one exchangeability rule, one band.

* **Global level** (4.2): among enumerated global plans, drop plans
  dominated by a cheaper plan on the same server set, cluster plans
  within the band of the cheapest, and rotate round-robin across the
  cluster — spreading a hot query's load over disjoint server sets.

Both levels keep one per-key book (:class:`_Rotation`: the rotation
counter), LRU-bounded by ``MAX_TRACKED`` so a workload of millions of
distinct statements cannot leak memory.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, TypeVar

from ..fed.decomposer import DecomposedQuery
from ..fed.global_optimizer import (
    FragmentOption,
    GlobalPlan,
    cluster_near_cost,
    eliminate_dominated,
)

#: LRU bound on distinct keys whose rotation counter is kept.
MAX_TRACKED = 1024


@dataclass(frozen=True)
class LoadBalanceConfig:
    """Shared knobs for both balancing levels."""

    #: Plans within (1 + band) × cheapest are considered exchangeable.
    band: float = 0.2


_V = TypeVar("_V")


def _lru_put(mapping: Dict[str, _V], key: str, value: _V) -> None:
    """Insert ``key`` at the most-recently-used end, evicting the LRU
    entries beyond ``MAX_TRACKED`` (dicts preserve insertion order)."""
    mapping.pop(key, None)
    mapping[key] = value
    while len(mapping) > MAX_TRACKED:
        del mapping[next(iter(mapping))]


def hrw_score(fragment_signature: str, server: str) -> int:
    """Rendezvous weight of *server* for *fragment_signature*.

    A keyed ``blake2b`` digest — deterministic across processes and
    Python invocations (unlike the salted builtin ``hash``), uniform
    enough that distinct signatures spread evenly over a cluster.
    """
    payload = f"{fragment_signature}\x00{server}".encode("utf-8")
    return int.from_bytes(
        hashlib.blake2b(payload, digest_size=8).digest(), "big"
    )


def rank_servers(fragment_signature: str, servers: Sequence[str]) -> List[str]:
    """Servers ordered by descending rendezvous weight (ties by name).

    The head is the fragment's home replica, where its rotation starts;
    the second entry is the canonical hedge backup.  Removing one server
    from the input moves only the homes it held (~1/n of fragments).
    """
    return sorted(
        servers, key=lambda s: (-hrw_score(fragment_signature, s), s)
    )


class _Rotation:
    """What both balancing levels keep per key (fragment signature or
    statement text), LRU-bounded by ``MAX_TRACKED``: the round-robin
    counter."""

    def __init__(self, config: LoadBalanceConfig = LoadBalanceConfig()):
        self.config = config
        self._counters: Dict[str, int] = {}

    def _rotate(self, key: str, cluster: Sequence[_V]) -> _V:
        """The member of *cluster* whose turn it is for *key*: the head
        first, then every member in order, period ``len(cluster)``."""
        if len(cluster) < 2:
            return cluster[0]
        index = self._counters.get(key, 0)
        _lru_put(self._counters, key, index + 1)
        return cluster[index % len(cluster)]


class FragmentLoadBalancer(_Rotation):
    """Round-robin rotation across identical fragment plans, starting
    at the fragment's rendezvous-hash home (Section 4.1)."""

    def substitute(
        self, chosen: FragmentOption, siblings: Sequence[FragmentOption]
    ) -> FragmentOption:
        """Possibly swap *chosen* for an identical plan on another server.

        Exchangeability requires the sibling's plan to be *identical*
        (equal plan signatures): "two different query fragment processing
        plans may result in different global processing plans with
        dramatically different costs even [if] they have an identical
        calibrated cost."

        The fragment rotates over its exchangeable cluster in HRW rank
        order (:func:`rank_servers`): its first dispatch goes to its home
        replica, so distinct fragments spread uniformly, and repeated
        submissions of the *same* fragment visit every member in turn.
        """
        cluster = self.ranked_cluster(chosen, siblings)
        return self._rotate(chosen.fragment.signature, cluster)

    def ranked_cluster(
        self, chosen: FragmentOption, siblings: Sequence[FragmentOption]
    ) -> List[FragmentOption]:
        """The one replica-choice rule: *chosen* and the siblings it is
        exchangeable with — identical plan, viable, calibrated cost
        within the band of the cluster's cheapest — in HRW rank order.
        Substitution rotates over it from the head; a second leg (hedge
        backup, migration target) takes the first other entry that is
        available."""
        plan_signature = chosen.plan_signature
        matches = [
            option
            for option in siblings
            if option.plan_signature == plan_signature and option.is_viable
        ]
        if chosen not in matches:
            matches.append(chosen)
        cheapest = min(o.calibrated.total for o in matches)
        threshold = cheapest * (1.0 + self.config.band)
        cluster = [o for o in matches if o.calibrated.total <= threshold]
        order = rank_servers(
            chosen.fragment.signature, [o.server for o in cluster]
        )
        return sorted(cluster, key=lambda o: order.index(o.server))


class GlobalLoadBalancer(_Rotation):
    """Round-robin rotation across near-cost global plans (Section 4.2)."""

    def recommend(
        self, decomposed: DecomposedQuery, plans: Sequence[GlobalPlan]
    ) -> GlobalPlan:
        """Choose the plan to run for this submission: rotation over
        the dominance-pruned near-cost cluster, keyed by statement."""
        if not plans:
            raise ValueError("no plans to recommend from")
        survivors = eliminate_dominated(plans)
        cluster = cluster_near_cost(survivors, self.config.band)
        return self._rotate(decomposed.statement.sql(), cluster)
