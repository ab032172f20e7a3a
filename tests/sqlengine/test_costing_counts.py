"""One ``optimize`` evaluates each cost formula once per plan node.

Counted from outside, through names that do not move: the two cost
helpers every scan / filter / join formula goes through, as
``repro.sqlengine.physical`` imports them, against the plan nodes the
optimizer constructs.  Re-costing a join candidate's subtrees from the
leaves — what the DP did before costs were memoised per estimator — puts
the evaluations at about ten times the nodes and fails both tests.
"""

from __future__ import annotations

import itertools

import pytest

from repro.sqlengine import Column, ColumnType, Schema
from repro.sqlengine import physical
from repro.sqlengine.catalog import Catalog, ColumnStats, TableDef, TableStats
from repro.sqlengine.logical import bind
from repro.sqlengine.optimizer import Optimizer
from repro.sqlengine.parser import parse
from repro.workload.queries import QT4


@pytest.fixture()
def counts(monkeypatch):
    """``{"evaluations": n, "nodes": m}``, counting from here on."""
    counts = {"evaluations": 0, "nodes": 0}

    def counting(real, what):
        def wrapper(*args, **kwargs):
            counts[what] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in ("estimate_selectivity", "pages_for"):
        monkeypatch.setattr(
            physical, name, counting(getattr(physical, name), "evaluations")
        )
    for operator in physical.PhysicalPlan.__subclasses__():
        monkeypatch.setattr(
            operator, "__init__", counting(operator.__init__, "nodes")
        )
    return counts


def test_qt4_costing_work_is_pinned(sample_databases, counts):
    db = sample_databases["S1"]
    block = bind(parse(QT4.instance(0).sql), db.catalog)
    assert len(block.relations) == 3
    candidates = db.optimizer.optimize(block)
    assert len(candidates) == 3
    # Nodes: 3 scans, 32 joins, 3 aggregates.  The 12 splits offer 42
    # joins (1-3 alternatives a side, hash and nested-loop each; the two
    # o|p splits are cross joins); the other ten belong to pairs whose
    # two sides already cost more than the third-cheapest join their
    # subset had priced, and are never built.  Evaluations: a page count
    # per scan and a selectivity per scan predicate (the two local ones
    # and the absent one of l).  An inner join's rows come from its
    # relation set's equijoin edges, so no join condition is evaluated.
    assert counts == {"evaluations": 3 + 3, "nodes": 3 + 32 + 3}


def test_four_relation_clique_costing_is_linear(counts):
    catalog = Catalog()
    for i, rows in enumerate((50_000, 4_000, 300, 20)):
        catalog.register(
            TableDef(
                f"t{i}",
                Schema((Column("k", ColumnType.INT), Column("v", ColumnType.FLOAT))),
                TableStats(
                    rows,
                    {
                        "k": ColumnStats(max(rows // 4, 1), 0, rows),
                        "v": ColumnStats(97, 0.0, 500.0),
                    },
                ),
            )
        )
    joins = " AND ".join(
        f"r{a}.k = r{b}.k" for a, b in itertools.combinations(range(4), 2)
    )
    sql = (
        "SELECT r0.v, COUNT(*) AS n FROM t0 r0, t1 r1, t2 r2, t3 r3 "
        f"WHERE {joins} AND r0.v > 10 AND r3.v < 400 GROUP BY r0.v"
    )
    Optimizer().optimize(bind(parse(sql), catalog))
    # 50 splits, hash and nested-loop each, would build 331 nodes; the
    # DP's bound skips the pairs that cannot reach their subset's top
    # three.
    assert counts["nodes"] == 105
    assert counts["evaluations"] <= counts["nodes"]
