"""Unit tests for the fixed-assignment calibrations of the baselines."""

import pytest

from repro.baselines import FixedAssignment, PreferredServer
from repro.fed import FederationError
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


def _route(calibration, plans, label):
    return calibration.recommend_global(_decomposed(), plans, label, 0.0)


class TestFixedAssignment:
    def test_routes_by_label(self):
        chosen = _route(FixedAssignment({"QT1": "S1"}), PLANS, "QT1")
        assert chosen.servers == frozenset({"S1"})

    def test_falls_back_when_no_matching_plan(self):
        chosen = _route(FixedAssignment({"QT1": "S9"}), PLANS, "QT1")
        assert chosen.plan_id == "p1"

    def test_unmapped_label_uses_cheapest(self):
        assignment = FixedAssignment({"QT1": "S1"})
        assert _route(assignment, PLANS, "QT7").plan_id == "p1"
        assert _route(assignment, PLANS, None).plan_id == "p1"

    def test_picks_cheapest_on_assigned_server(self):
        plans = PLANS + [_plan("p4", "S1", 11.0)]
        chosen = _route(FixedAssignment({"QT1": "S1"}), plans, "QT1")
        assert chosen.total_cost == 11.0

    def test_empty_raises(self):
        with pytest.raises(FederationError):
            _route(FixedAssignment({"QT1": "S1"}), [], "QT1")

    def test_costs_are_the_identity(self):
        option = PLANS[0].choices[0]
        calibration = FixedAssignment({"QT1": "S1"})
        assert calibration.calibrate("S3", "sig", option.estimated) is (
            option.estimated
        )


class TestPreferredServer:
    def test_prefers_server_even_if_costlier(self):
        # Whatever the label, none included.
        for label in (None, "QT1", "QT7"):
            chosen = _route(PreferredServer("S2"), PLANS, label)
            assert chosen.servers == frozenset({"S2"})

    def test_falls_back_if_absent(self):
        assert _route(PreferredServer("S9"), PLANS, None).plan_id == "p1"

    def test_empty_raises(self):
        with pytest.raises(FederationError):
            _route(PreferredServer("S2"), [], None)
