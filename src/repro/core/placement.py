"""Data placement advisor.

The paper's conclusion lists "incorporation of data placement strategies
in conjunction with QCC into the proposed architecture" as future work.
This module implements that step: it mines the meta-wrapper's runtime
log (where is the workload's time actually spent?) together with QCC's
calibration factors (which servers are inflated by load/latency?) and
recommends replicating hot nicknames onto cheap servers.

Recommendations are *executable*: :func:`apply_recommendation` copies
the table to the target server and registers the new placement, after
which the ordinary calibrated routing starts using it — no optimizer or
integrator changes, in the spirit of QCC's transparency.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from ..sqlengine import parse
from ..fed.nicknames import FederationError, NicknameRegistry


@dataclass(frozen=True)
class NicknameLoad:
    """Observed load attributable to one nickname on one server."""

    nickname: str
    server: str
    observed_ms: float
    executions: int


@dataclass(frozen=True)
class PlacementRecommendation:
    """Replicate *nickname* from *source* onto *target*."""

    nickname: str
    source: str
    target: str
    observed_ms: float
    source_factor: float
    target_factor: float

    @property
    def expected_benefit_ms(self) -> float:
        """Rough benefit: the hot traffic would run at the target's
        inflation instead of the source's."""
        if self.source_factor <= 0:
            return 0.0
        improvement = 1.0 - (self.target_factor / self.source_factor)
        return max(0.0, self.observed_ms * improvement)

    def describe(self) -> str:
        return (
            f"replicate {self.nickname!r}: {self.source} "
            f"(factor {self.source_factor:.2f}) -> {self.target} "
            f"(factor {self.target_factor:.2f}), "
            f"~{self.expected_benefit_ms:.0f} ms/window"
        )


def _nicknames_of(fragment_sql: str) -> Tuple[str, ...]:
    """Table names referenced by a logged fragment statement."""
    statement = parse(fragment_sql)
    names = [t.name.lower() for t in statement.tables]
    names.extend(j.table.name.lower() for j in statement.joins)
    return tuple(dict.fromkeys(names))


class PlacementAdvisor:
    """Derives replication recommendations from runtime evidence."""

    def __init__(
        self,
        registry: NicknameRegistry,
        meta_wrapper,
        qcc,
        factor_gap: float = 1.5,
    ):
        """*factor_gap*: only recommend when the source's calibration
        factor exceeds the target's by at least this ratio."""
        self.registry = registry
        self.meta_wrapper = meta_wrapper
        self.qcc = qcc
        self.factor_gap = factor_gap

    # -- analysis ----------------------------------------------------------

    def nickname_loads(self) -> List[NicknameLoad]:
        """Aggregate the runtime log into per-(nickname, server) load."""
        observed: Dict[Tuple[str, str], float] = defaultdict(float)
        counts: Dict[Tuple[str, str], int] = defaultdict(int)
        for entry in self.meta_wrapper.runtime_log:
            try:
                nicknames = _nicknames_of(entry.fragment_signature)
            except Exception:
                continue
            share = entry.observed_ms / max(len(nicknames), 1)
            for nickname in nicknames:
                key = (nickname, entry.server)
                observed[key] += share
                counts[key] += 1
        return sorted(
            (
                NicknameLoad(
                    nickname=nickname,
                    server=server,
                    observed_ms=total,
                    executions=counts[(nickname, server)],
                )
                for (nickname, server), total in observed.items()
            ),
            key=lambda item: -item.observed_ms,
        )

    def recommend(
        self, max_recommendations: int = 3
    ) -> List[PlacementRecommendation]:
        """Rank replication moves by expected benefit."""
        factors = {
            server: self.qcc.factor(server)
            for server in self.meta_wrapper.server_names()
        }
        recommendations: List[PlacementRecommendation] = []
        seen: Set[Tuple[str, str]] = set()
        for load in self.nickname_loads():
            try:
                hosts = self.registry.servers_for(load.nickname)
            except FederationError:
                continue
            source_factor = factors.get(load.server, 1.0)
            candidates = [
                (server, factor)
                for server, factor in factors.items()
                if server not in hosts
                and self.qcc.is_available(server, 0.0)
            ]
            if not candidates:
                continue
            target, target_factor = min(candidates, key=lambda c: c[1])
            if target_factor <= 0:
                continue
            if source_factor / target_factor < self.factor_gap:
                continue
            key = (load.nickname, target)
            if key in seen:
                continue
            seen.add(key)
            recommendations.append(
                PlacementRecommendation(
                    nickname=load.nickname,
                    source=load.server,
                    target=target,
                    observed_ms=load.observed_ms,
                    source_factor=source_factor,
                    target_factor=target_factor,
                )
            )
        recommendations.sort(key=lambda r: -r.expected_benefit_ms)
        return recommendations[:max_recommendations]


def apply_recommendation(
    recommendation: PlacementRecommendation,
    registry: NicknameRegistry,
    servers: Dict[str, object],
) -> int:
    """Execute a replication: copy data and register the placement.

    *servers* maps server name to :class:`~repro.sim.RemoteServer`.
    Returns the number of rows copied.  The new replica immediately
    becomes a candidate for future compilations.
    """
    nickname = recommendation.nickname
    source = servers.get(recommendation.source)
    target = servers.get(recommendation.target)
    if source is None or target is None:
        raise FederationError(
            f"unknown server in recommendation {recommendation.describe()}"
        )
    remote_name = registry.remote_table(nickname, recommendation.source)
    source_db = source.database
    target_db = target.database
    table = source_db.catalog.lookup(remote_name)
    if target_db.catalog.has_table(remote_name):
        raise FederationError(
            f"server {recommendation.target} already has a table "
            f"{remote_name!r}"
        )
    bare_schema_cols = tuple(
        column.with_table(None) for column in table.schema.columns
    )
    from ..sqlengine import Schema

    target_db.create_table(remote_name, Schema(bare_schema_cols))
    rows = list(source_db.storage.table(remote_name).scan())
    target_db.load_rows(remote_name, rows)
    for index in table.indexes:
        target_db.create_index(remote_name, index.column)
    registry.register(nickname, recommendation.target, remote_name)
    return len(rows)
