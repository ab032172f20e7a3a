"""One definition of each operator's work: a unit that depends on the
node is read by both its cost formula and its meter charge.

Each such unit is scaled on one node's instance.  The plan's ``_cost`` at
the reference profile and the meter of its execution must then move by
the same charge: the unit's increase times its count.  The table is built
so that every estimated count equals the executed one (exact statistics,
uniform groups), so the two moves are one number.  A formula that
restated the unit, rather than reading it, would not move.
"""

from __future__ import annotations

import math

import pytest

from repro.sqlengine import Column, ColumnType, Database, Schema
from repro.sqlengine import physical as P
from repro.sqlengine.cost import REFERENCE_PROFILE
from repro.sqlengine.executor import execute_plan
from repro.sqlengine.parser import parse_expression

#: Rows of ``t``: ``k`` is unique, ``v`` has two values of four rows each.
ROWS = [(k, k % 2) for k in range(8)]


@pytest.fixture()
def db():
    database = Database("units")
    database.create_table(
        "t", Schema((Column("k", ColumnType.INT), Column("v", ColumnType.INT)))
    )
    database.load_rows("t", ROWS)
    database.analyze()
    return database


def _scan(db, binding="t", predicate=None):
    return P.SeqScan(db.catalog.lookup("t"), binding, predicate)


def _optimized(db, sql, kind):
    """The cheapest plan of *sql*, and its one node of type *kind*."""
    plan = db.explain(sql)[0].plan
    nodes, found = [plan], []
    while nodes:
        node = nodes.pop()
        found += [node] if isinstance(node, kind) else []
        nodes += node.children()
    (node,) = found
    return plan, node


def _units(db):
    """(plan, node, unit, count): the plan to run, its node whose unit is
    scaled, and the count both sides charge that unit at."""
    where = parse_expression("t.v = 1 AND t.k >= 0")
    scan = _scan(db, predicate=where)
    yield scan, scan, "_per_row", 8
    filtered = P.Filter(_scan(db), where)
    yield filtered, filtered, "_per_row", 8
    yield (*_optimized(db, "SELECT t.k, t.v + 1 AS w FROM t", P.Project), "_per_row", 8)
    join = P.NestedLoopJoin(
        _scan(db, "a"), _scan(db, "b"), parse_expression("a.k = b.k")
    )
    yield join, join, "_per_pair", 64
    grouped = "SELECT t.v, COUNT(*) AS n, SUM(t.k) AS s FROM t GROUP BY t.v"
    yield (*_optimized(db, grouped, P.HashAggregate), "_per_update", 8)
    yield (*_optimized(db, grouped, P.HashAggregate), "_per_group", 2)


def _measure(db, plan):
    """(cost at the reference profile, metered work) of *plan*."""
    cost = db.estimate_plan(plan, REFERENCE_PROFILE).total
    return cost, execute_plan(plan, db.storage).meter.total_ms


def test_a_node_dependent_unit_moves_formula_and_meter_alike(db, monkeypatch):
    scaled = set()
    for plan, node, unit, count in _units(db):
        cost, meter = _measure(db, plan)
        charge = count * getattr(node, unit)
        monkeypatch.setattr(node, unit, 2 * getattr(node, unit))
        scaled_cost, scaled_meter = _measure(db, plan)
        case = type(node).__name__, unit
        assert charge > 0
        assert math.isclose(scaled_cost - cost, charge, rel_tol=1e-12), case
        assert math.isclose(scaled_meter - meter, charge, rel_tol=1e-12), case
        scaled.add(case)
    assert scaled == {
        ("SeqScan", "_per_row"),
        ("Filter", "_per_row"),
        ("Project", "_per_row"),
        ("NestedLoopJoin", "_per_pair"),
        ("HashAggregate", "_per_update"),
        ("HashAggregate", "_per_group"),
    }
