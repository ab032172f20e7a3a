"""Unit tests for plan-selection routers."""

import pytest

from repro.fed import (
    FederationError,
    FixedRouter,
    PreferredServerRouter,
)
from repro.fed.global_optimizer import GlobalPlan, FragmentOption
from repro.fed.decomposer import DecomposedQuery, QueryFragment
from repro.sqlengine import Column, ColumnType, PlanCost, Schema, SeqScan
from repro.sqlengine.catalog import TableDef, TableStats
from repro.sqlengine.logical import QueryBlock
from repro.sqlengine.parser import parse


def _fragment():
    return QueryFragment(
        fragment_id="QF1",
        sql="SELECT a FROM t",
        bindings=("t",),
        nicknames=("t",),
        candidate_servers=("S1", "S2", "S3"),
        output_schema=Schema((Column("a", ColumnType.INT, "t"),)),
        full_pushdown=True,
    )


def _plan(plan_id, server, total):
    table = TableDef(
        name="t",
        schema=Schema((Column("a", ColumnType.INT),)),
        stats=TableStats(row_count=1),
    )
    cost = PlanCost(1.0, total, 10.0)
    option = FragmentOption(
        fragment=_fragment(),
        server=server,
        plan=SeqScan(table, "t"),
        estimated=cost,
        calibrated=cost,
    )
    return GlobalPlan(
        plan_id=plan_id,
        choices=(option,),
        merge_cost=PlanCost(0.0, 0.0, 1.0),
        total_cost=total,
    )


def _decomposed():
    statement = parse("SELECT a FROM t")
    block = QueryBlock(
        relations={},
        join_edges=(),
        residual=None,
        items=(),
        output_schema=Schema(()),
    )
    return DecomposedQuery(
        statement=statement, block=block, fragments=(_fragment(),), cross_edges=()
    )


PLANS = [
    _plan("p1", "S3", 10.0),
    _plan("p2", "S1", 12.0),
    _plan("p3", "S2", 30.0),
]


class TestFixedRouter:
    def test_routes_by_label(self):
        router = FixedRouter({"QT1": "S1"})
        chosen = router.choose(_decomposed(), PLANS, label="QT1")
        assert chosen.servers == frozenset({"S1"})

    def test_falls_back_when_no_matching_plan(self):
        router = FixedRouter({"QT1": "S9"})
        chosen = router.choose(_decomposed(), PLANS, label="QT1")
        assert chosen.plan_id == "p1"

    def test_unmapped_label_uses_cheapest(self):
        router = FixedRouter({"QT1": "S1"})
        chosen = router.choose(_decomposed(), PLANS, label="QT7")
        assert chosen.plan_id == "p1"

    def test_picks_cheapest_on_assigned_server(self):
        plans = PLANS + [_plan("p4", "S1", 11.0)]
        router = FixedRouter({"QT1": "S1"})
        chosen = router.choose(_decomposed(), plans, label="QT1")
        assert chosen.total_cost == 11.0

    def test_empty_raises(self):
        with pytest.raises(FederationError):
            FixedRouter({"QT1": "S1"}).choose(_decomposed(), [], label="QT1")


class TestPreferredServerRouter:
    def test_prefers_server_even_if_costlier(self):
        router = PreferredServerRouter("S2")
        chosen = router.choose(_decomposed(), PLANS)
        assert chosen.servers == frozenset({"S2"})

    def test_falls_back_if_absent(self):
        router = PreferredServerRouter("S9")
        assert router.choose(_decomposed(), PLANS).plan_id == "p1"
