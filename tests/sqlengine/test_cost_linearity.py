"""The explain bound's premise (docs/cost_model.md, "The explain bound"):
a plan's estimated total is linear in 1/``cpu_speed`` and 1/``io_speed``
plus one unscaled ``STARTUP_COST`` per leaf.

For every candidate plan S1-S3 give QT1-QT5 and the SQLite-oracle
grammar's pinned statements, pricing the plan at the profiles (1, 1),
(2, 1) and (1, 2) yields its CPU part C and I/O part I.  The plan's
total at (1, 1) and at its own server's profile must then be
C/cpu + I/io + ``STARTUP_COST`` x leaves.  An operator that gains an
unscaled constant, or a ``max()`` over scaled terms, fails here — and
would void the bound the meta-wrapper skips explains on.
"""

from __future__ import annotations

import math
from pathlib import Path

from repro.sqlengine import ServerProfile
from repro.sqlengine import physical as P
from repro.workload import EXTENDED_QUERY_TYPES

PINNED = [
    line
    for line in (
        Path(__file__).parents[1] / "integration" / "pinned_statements.sql"
    ).read_text().splitlines()
    if line and not line.startswith("--")
]

TEXTS = [
    template.instance(index).sql
    for template in EXTENDED_QUERY_TYPES
    for index in range(3)
] + PINNED

#: The operators that carry the unscaled startup: the plan leaves.
LEAVES = (P.SeqScan, P.MaterializedInput)


def _nodes(plan):
    yield plan
    for child in plan.children():
        yield from _nodes(child)


def _total(database, plan, cpu, io):
    return database.estimate_plan(plan, ServerProfile("p", cpu, io)).total


def test_every_candidate_is_linear_in_the_profile_but_for_its_leaves(
    sample_databases,
):
    assert len(PINNED) >= 100
    for sql in TEXTS:
        leaf_counts = set()
        for database in sample_databases.values():
            for candidate in database.explain(sql):
                plan = candidate.plan
                nodes = list(_nodes(plan))
                # Only leaves carry the startup, and every leaf is one.
                assert all(
                    isinstance(n, LEAVES) == (not n.children()) for n in nodes
                ), plan.explain()
                leaves = sum(isinstance(n, LEAVES) for n in nodes)
                leaf_counts.add(leaves)
                unit = _total(database, plan, 1.0, 1.0)
                cpu = 2.0 * (unit - _total(database, plan, 2.0, 1.0))
                io = 2.0 * (unit - _total(database, plan, 1.0, 2.0))
                startup = P.STARTUP_COST * leaves
                profile = database.profile
                for total, (cpu_speed, io_speed) in (
                    (unit, (1.0, 1.0)),
                    (candidate.cost.total, (profile.cpu_speed, profile.io_speed)),
                ):
                    linear = cpu / cpu_speed + io / io_speed + startup
                    assert math.isclose(total, linear, rel_tol=1e-12), (
                        sql,
                        plan.explain(),
                        (cpu_speed, io_speed),
                    )
        # One plan space per text: the bound's startup term is every
        # plan's, whichever server planned it.
        assert len(leaf_counts) == 1, sql
