"""Unit tests for fragment- and global-level load distribution."""

import pytest

from repro.core import FragmentLoadBalancer, GlobalLoadBalancer, LoadBalanceConfig
from repro.core import load_balance
from repro.core.load_balance import hrw_score, rank_servers
from repro.fed.decomposer import DecomposedQuery, QueryFragment
from repro.fed.global_optimizer import FragmentOption, GlobalPlan
from repro.sqlengine import Column, ColumnType, PlanCost, Schema, SeqScan
from repro.sqlengine.catalog import TableDef, TableStats
from repro.sqlengine.logical import QueryBlock
from repro.sqlengine.parser import parse


def _fragment(sql="SELECT a FROM t"):
    return QueryFragment(
        fragment_id="QF1",
        sql=sql,
        bindings=("t",),
        nicknames=("t",),
        candidate_servers=("S1", "R1"),
        output_schema=Schema((Column("a", ColumnType.INT, "t"),)),
        full_pushdown=True,
    )


def _table(name="t"):
    return TableDef(
        name=name,
        schema=Schema((Column("a", ColumnType.INT),)),
        stats=TableStats(row_count=10),
    )


def _option(server, total, fragment=None, table_name="t", predicate=None):
    fragment = fragment or _fragment()
    cost = PlanCost(1.0, total, 10.0)
    from repro.sqlengine.parser import parse_expression as pe

    plan = SeqScan(
        _table(table_name), "t",
        pe(predicate) if predicate else None,
    )
    return FragmentOption(
        fragment=fragment,
        server=server,
        plan=plan,
        estimated=cost,
        calibrated=cost,
    )


class TestFragmentBalancer:
    def _balancer(self, band=0.2):
        return FragmentLoadBalancer(LoadBalanceConfig(band=band))

    def test_hot_fragment_rotates_over_cluster_from_hrw_home(self):
        """Section 4.1's round-robin: the first pick is the HRW home,
        then every cluster member in rank order, period = cluster size."""
        balancer = self._balancer()
        fragment = _fragment()
        chosen = _option("S1", 10.0, fragment)
        siblings = [
            chosen,
            _option("R1", 11.0, fragment),
            _option("R2", 10.5, fragment),
        ]
        order = rank_servers(fragment.signature, ["R1", "R2", "S1"])
        picks = [
            balancer.substitute(chosen, siblings).server
            for _ in range(7)
        ]
        assert picks == (order * 3)[:7]

    def test_distinct_fragments_spread_over_cluster(self):
        """HRW spreads the first dispatches of distinct fragment
        instances across the replicas."""
        balancer = self._balancer()
        homes = set()
        for i in range(32):
            fragment = _fragment(f"SELECT a FROM t WHERE t.a = {i}")
            chosen = _option("S1", 10.0, fragment)
            siblings = [chosen, _option("R1", 10.0, fragment)]
            homes.add(balancer.substitute(chosen, siblings).server)
        assert homes == {"S1", "R1"}

    def test_non_identical_plans_not_exchangeable(self):
        balancer = self._balancer()
        fragment = _fragment()
        chosen = _option("S1", 10.0, fragment)
        different = _option("R1", 10.0, fragment, predicate="t.a > 1")
        picks = {
            balancer.substitute(chosen, [chosen, different]).server
            for _ in range(4)
        }
        assert picks == {"S1"}

    def test_band_excludes_expensive_replica(self):
        balancer = self._balancer(band=0.2)
        fragment = _fragment()
        chosen = _option("S1", 10.0, fragment)
        pricey = _option("R1", 13.0, fragment)  # 30% above cheapest
        picks = {
            balancer.substitute(chosen, [chosen, pricey]).server
            for _ in range(4)
        }
        assert picks == {"S1"}

    def test_cluster_membership_recorded(self):
        balancer = self._balancer()
        fragment = _fragment()
        chosen = _option("S1", 10.0, fragment)
        cluster = balancer.ranked_cluster(
            chosen, [chosen, _option("R1", 10.0, fragment)]
        )
        # In HRW rank order: head = home, second = hedge backup.
        assert [o.server for o in cluster] == rank_servers(
            fragment.signature, ["R1", "S1"]
        )

    def test_rotation_counters_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(load_balance, "MAX_TRACKED", 8)
        balancer = FragmentLoadBalancer()
        for i in range(32):
            fragment = _fragment(f"SELECT a FROM t WHERE t.a = {i}")
            chosen = _option("S1", 10.0, fragment)
            balancer.substitute(chosen, [chosen, _option("R1", 10.0, fragment)])
        assert len(balancer._counters) == 8


class TestRendezvousHashing:
    def test_deterministic_across_calls(self):
        assert hrw_score("sig", "S1") == hrw_score("sig", "S1")
        assert rank_servers("sig", ["S1", "R1", "S2"]) == rank_servers(
            "sig", ["S2", "R1", "S1"]
        )

    def test_distinct_keys_differ(self):
        scores = {hrw_score(f"sig-{i}", "S1") for i in range(64)}
        assert len(scores) == 64

    def test_churn_moves_about_one_nth(self):
        """Removing one of n servers reassigns only the fragments whose
        head it was (~1/n) and never disturbs the others."""
        servers = ["S1", "S2", "S3", "S4"]
        signatures = [f"SELECT a FROM t WHERE t.a = {i}" for i in range(400)]
        before = {s: rank_servers(s, servers)[0] for s in signatures}
        shrunk = [s for s in servers if s != "S2"]
        after = {s: rank_servers(s, shrunk)[0] for s in signatures}
        moved = [s for s in signatures if before[s] != after[s]]
        # Every move is an eviction from the removed server...
        assert all(before[s] == "S2" for s in moved)
        # ...and everything previously on S2 moved (nothing else did).
        assert len(moved) == sum(1 for s in signatures if before[s] == "S2")
        # Roughly 1/4 of assignments lived on the removed server.
        assert 0.15 < len(moved) / len(signatures) < 0.35

    def test_spread_is_roughly_uniform(self):
        servers = ["S1", "S2", "S3", "S4"]
        counts = {name: 0 for name in servers}
        for i in range(400):
            counts[rank_servers(f"frag-{i}", servers)[0]] += 1
        for name in servers:
            assert 60 <= counts[name] <= 140


def _global_plan(plan_id, servers, total):
    options = tuple(
        _option(server, total, _fragment(f"SELECT a FROM t{i}"))
        for i, server in enumerate(servers)
    )
    return GlobalPlan(
        plan_id=plan_id,
        choices=options,
        merge_cost=PlanCost(0.0, 0.0, 1.0),
        total_cost=total,
    )


def _decomposed(sql="SELECT a FROM t"):
    block = QueryBlock(
        relations={},
        join_edges=(),
        residual=None,
        items=(),
        output_schema=Schema(()),
    )
    return DecomposedQuery(
        statement=parse(sql),
        block=block,
        fragments=(_fragment(),),
        cross_edges=(),
    )


class TestGlobalBalancer:
    def test_rotates_over_near_cost_server_sets(self):
        balancer = GlobalLoadBalancer(LoadBalanceConfig(band=0.2))
        plans = [
            _global_plan("p1", ["S1"], 10.0),
            _global_plan("p2", ["R1"], 11.0),
            _global_plan("p3", ["S2"], 30.0),  # outside band
        ]
        decomposed = _decomposed()
        picks = [
            balancer.recommend(decomposed, plans).plan_id
            for _ in range(4)
        ]
        assert set(picks) == {"p1", "p2"}
        assert picks[0] != picks[1]

    def test_dominated_plans_never_selected(self):
        balancer = GlobalLoadBalancer(LoadBalanceConfig(band=0.5))
        plans = [
            _global_plan("p1", ["S1"], 10.0),
            _global_plan("p2", ["S1"], 12.0),  # dominated by p1
            _global_plan("p3", ["R1"], 11.0),
        ]
        picks = {
            balancer.recommend(_decomposed(), plans).plan_id
            for _ in range(6)
        }
        assert "p2" not in picks

    def test_empty_plans_rejected(self):
        with pytest.raises(ValueError):
            GlobalLoadBalancer().recommend(_decomposed(), [])

    def test_counters_and_clusters_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(load_balance, "MAX_TRACKED", 8)
        balancer = GlobalLoadBalancer()
        plans = [
            _global_plan("p1", ["S1"], 10.0),
            _global_plan("p2", ["R1"], 10.5),
        ]
        for i in range(32):
            balancer.recommend(
                _decomposed(f"SELECT a FROM t WHERE a = {i}"), plans
            )
        assert len(balancer._counters) == 8

    def test_rotation_keyed_per_statement(self):
        balancer = GlobalLoadBalancer(LoadBalanceConfig(band=0.2))
        plans = [
            _global_plan("p1", ["S1"], 10.0),
            _global_plan("p2", ["R1"], 10.5),
        ]
        first = balancer.recommend(_decomposed("SELECT a FROM t"), plans)
        other = balancer.recommend(_decomposed("SELECT a FROM u"), plans)
        # independent rotation counters -> both start at the same position
        assert first.plan_id == other.plan_id
