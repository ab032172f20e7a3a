"""Degenerate tables through the federation, checked against SQLite.

The seeded generators only ever produce full, NULL-free tables with
spread-out keys.  Here the five sample tables are loaded five other ways
— empty, one row each, NULL in every non-key column, one value in every
key column (so every join is a cross product), and foreign keys redrawn
from a heavily skewed distribution (a few hot keys, but not one) — and
QT1-QT5 go through ``InformationIntegrator.submit`` on both topologies.
Every answer must equal SQLite's over the same rows.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.chaos.sqlite_answers import SqliteAnswers
from repro.harness.deployment import (
    DEFAULT_SERVER_SPECS,
    REPLICA_PLACEMENT,
    REPLICA_SERVER_SPECS,
    build_federation,
)
from repro.sqlengine import ForeignKey, Serial, ZipfInt, rows_close_unordered
from repro.workload import WorkloadScale, table_specs
from repro.workload.queries import EXTENDED_QUERY_TYPES
from tests.datasets import server_databases

#: Small enough that a join over one key value stays a few thousand rows.
SCALE = WorkloadScale(large_rows=40, small_rows=8)

WORKLOAD = [
    template.instance(instance_id)
    for template in EXTENDED_QUERY_TYPES
    for instance_id in range(3)
]


def _keys(table):
    return [isinstance(gen, (Serial, ForeignKey)) for _, _, gen in table.columns]


def _skewed_keys(table, rows):
    """Every foreign key redrawn from ``ZipfInt(parent_rows, skew=4)``
    with a fixed seed: key 1 takes 38-65% of a column's rows."""
    rng = random.Random(4)
    draws = [
        ZipfInt(gen.parent_rows, skew=4) if isinstance(gen, ForeignKey) else None
        for _, _, gen in table.columns
    ]
    return [
        tuple(
            v if draw is None else draw.generate(rng, index)
            for v, draw in zip(row, draws)
        )
        for index, row in enumerate(rows)
    ]


DATASETS = {
    "empty": lambda table, rows: [],
    "single-row": lambda table, rows: rows[:1],
    "null-non-keys": lambda table, rows: [
        tuple(v if key else None for v, key in zip(row, _keys(table))) for row in rows
    ],
    "one-key-value": lambda table, rows: [
        tuple(1 if key else v for v, key in zip(row, _keys(table))) for row in rows
    ],
    "skewed-keys": _skewed_keys,
}

TOPOLOGIES = {
    "triple": (DEFAULT_SERVER_SPECS, None),
    "replica": (REPLICA_SERVER_SPECS, REPLICA_PLACEMENT),
}


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_workload_answers_equal_sqlite(dataset, topology):
    specs, placement = TOPOLOGIES[topology]
    databases = server_databases(
        specs, placement, scale=SCALE, rows=DATASETS[dataset]
    )
    sqlite = SqliteAnswers(databases.values())
    integrator = build_federation(
        specs, scale=SCALE, prebuilt_databases=databases, placement=placement
    ).integrator
    for query in WORKLOAD:
        rows = integrator.submit(query.sql).rows
        assert rows_close_unordered(rows, sqlite.rows(query.sql)), query.sql


def test_skewed_keys_are_skewed_but_not_constant():
    databases = server_databases(
        DEFAULT_SERVER_SPECS, None, scale=SCALE, rows=_skewed_keys
    )
    storage = databases["S1"].storage
    for table in table_specs(SCALE):
        for position, (name, _, gen) in enumerate(table.columns):
            if isinstance(gen, ForeignKey):
                keys = Counter(row[position] for row in storage.table(table.name).rows)
                hottest = keys.most_common(1)[0][1]
                assert 1 < len(keys), (table.name, name)
                assert hottest > sum(keys.values()) / 3, (table.name, name, keys)
