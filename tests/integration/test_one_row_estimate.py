"""One row estimate per relation set: a statement's candidates agree on
their cardinality, whatever join order each was built in.

``physical.Selectivities.rows`` folds a joined set's base rows, then its
join conjuncts' selectivities, each in a canonical order, so every
candidate ``Database.explain`` returns for one text carries one
bit-equal ``cost.rows``.  Before it, each join multiplied its children's
rows in its own order, and QT4's candidates differed in the last bit.
Covered: every inner-join statement of ``pinned_statements.sql`` and
QT1–QT5 instances 0–9, on every server, at test and bench scale.
"""

from __future__ import annotations

import pytest

from repro.harness import DEFAULT_SERVER_SPECS, build_databases
from repro.workload import BENCH_SCALE, EXTENDED_QUERY_TYPES, TEST_SCALE

from .test_golden_meters import PINNED

INNER = [sql for sql in PINNED if "LEFT JOIN" not in sql]


def _rows(database, sql):
    """Each candidate's rows, as explained (one ``Selectivities`` for the
    text) and as costed afresh (one per plan, nothing shared)."""
    candidates = database.explain(sql)
    return [c.cost.rows for c in candidates] + [
        database.estimate_plan(c.plan).rows for c in candidates
    ]


def test_pinned_inner_join_statements_carry_one_estimate(sample_databases):
    database = sample_databases["S1"]
    assert len(INNER) >= 80
    multi = 0
    for sql in INNER:
        rows = _rows(database, sql)
        multi += len(rows) > 2
        assert len(set(rows)) == 1, (sql, rows)
    assert multi >= 50


@pytest.mark.parametrize("scale", [TEST_SCALE, BENCH_SCALE], ids=["test", "bench"])
def test_query_types_carry_one_estimate(scale):
    databases = build_databases(DEFAULT_SERVER_SPECS, scale)
    for template in EXTENDED_QUERY_TYPES:
        for instance in range(10):
            sql = template.instance(instance).sql
            for name, database in databases.items():
                rows = _rows(database, sql)
                assert len(rows) > 2
                assert len(set(rows)) == 1, (template.name, instance, name, rows)
