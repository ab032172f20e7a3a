"""Cardinality error, counted by an engine that is not this code
(docs/cost_model.md, "Cardinality error").

With the formula exact (C/cpu + I/io, and at actual counts the meter but
for the differences ``test_cost_at_actual_counts.py`` lists), what is left
between an estimate and the work is the row estimate.  For QT1-QT5
instances 0-9 at test scale, every inner-join relation set that an
explained candidate of S1-S3 prices (``Selectivities.rows``) is counted in
SQLite, loaded as ``test_sqlite_oracle.py`` loads it: ``COUNT(*)`` over
the set's relations with their local conjuncts and the join conjuncts
among them.  The q-error is max(est / true, true / est), both taken as
at least one row.  Each type's worst q-error is pinned to the value
measured when it was recorded, rounded up at the third digit, so a better
estimate moves the pin as surely as a worse one.  QT5's one join is a
LEFT JOIN: it prices no inner-join set.
"""

from __future__ import annotations

import math

import pytest

from repro.chaos.sqlite_answers import SqliteAnswers
from repro.sqlengine import physical as P
from repro.workload import EXTENDED_QUERY_TYPES

#: Worst q-error per query type over instances 0-9, rounded up at the
#: third digit (docs/cost_model.md, "Cardinality error").
WORST = {"QT1": 1.035, "QT2": 1.147, "QT3": 1.889, "QT4": 1.28}


def _pre_order(node):
    yield node
    for child in node.children():
        yield from _pre_order(child)


def _relation(node):
    """``table AS binding`` and the local conjuncts of a join input that
    is no inner join: a scan, under any filters."""
    predicates = []
    while isinstance(node, P.Filter):
        predicates.append(node.predicate)
        node = node.child
    assert isinstance(node, P.SeqScan), node.describe()
    predicates.append(node.predicate)
    local = [f"({p.sql()})" for p in predicates if p is not None]
    return f"{node.table.name} AS {node.binding}", local


def _count_sql(join):
    """SQLite's ``COUNT(*)`` text for the relation set *join* joins."""
    tables, where, nodes = [], [], [join]
    while nodes:
        node = nodes.pop()
        if not P._is_inner_join(node):
            table, local = _relation(node)
            tables.append(table)
            where += local
            continue
        nodes += node.children()
        if isinstance(node, P.HashJoin):
            where += [f"{a} = {b}" for a, b in zip(node.left_keys, node.right_keys)]
            condition = node.residual
        else:
            condition = node.condition
        if condition is not None:
            where.append(f"({condition.sql()})")
    text = "SELECT COUNT(*) FROM " + ", ".join(sorted(tables))
    return text + (" WHERE " + " AND ".join(sorted(where)) if where else "")


def q_errors(databases, connection):
    """{(type, relation set): [(instance, estimate, count, q-error)]} over
    every inner-join set the candidates of *databases* price."""
    found = {}
    for template in EXTENDED_QUERY_TYPES:
        for instance in range(10):
            sql = template.instance(instance).sql
            estimates, texts = {}, {}
            for database in databases:
                for candidate in database.explain(sql):
                    estimator = P.CostEstimator(
                        database.profile, P.stats_context_for_plan(candidate.plan)
                    )
                    for node in _pre_order(candidate.plan):
                        if P._is_inner_join(node):
                            relations = node._relation_set
                            estimates.setdefault(relations, set()).add(
                                estimator.selectivities.rows(node, estimator)
                            )
                            texts.setdefault(relations, set()).add(_count_sql(node))
            for relations, rows in estimates.items():
                # One estimate and one count per relation set, whichever
                # server planned it in whichever join order.
                counts = {
                    connection.execute(text).fetchall()[0][0]
                    for text in texts[relations]
                }
                assert len(rows) == len(counts) == 1, (sql, sorted(relations))
                (estimate,), (count,) = rows, counts
                e, t = max(estimate, 1.0), max(float(count), 1.0)
                key = template.name, "".join(sorted(relations))
                found.setdefault(key, []).append(
                    (instance, estimate, count, max(e / t, t / e))
                )
    return found


@pytest.fixture(scope="module")
def measured(sample_databases):
    sqlite = SqliteAnswers(sample_databases.values())
    return q_errors(sample_databases.values(), sqlite.connection)


def test_every_priced_set_is_counted_for_ten_instances(measured):
    assert sorted(measured) == [
        ("QT1", "lo"),
        ("QT2", "lp"),
        ("QT3", "lo"),
        ("QT4", "lo"),
        ("QT4", "lop"),
        ("QT4", "lp"),
    ]
    for rows in measured.values():
        assert [instance for instance, *_ in rows] == list(range(10))


def test_each_types_worst_q_error_is_the_recorded_one(measured):
    worst = {}
    for (name, _), rows in measured.items():
        worst[name] = max(worst.get(name, 1.0), *(q for *_, q in rows))
    assert {name: math.ceil(q * 1000) / 1000 for name, q in worst.items()} == WORST
