"""The explain bound's premise (docs/cost_model.md, "The explain bound"):
a plan's estimated total is linear in 1/``cpu_speed`` and 1/``io_speed``.

For every candidate plan S1-S3 give QT1-QT5 and the SQLite-oracle
grammar's pinned statements, pricing the plan at the profiles (1, 1),
(2, 1) and (1, 2) yields its CPU part C and I/O part I.  The plan's
total at (1, 1), at its own server's profile and at any profile of the
explain-bound tests' speed grid must then be C/cpu + I/io.  An operator
that gains an unscaled constant, or a ``max()`` over scaled terms,
fails here — and would void the bound the meta-wrapper skips explains
on.
"""

from __future__ import annotations

import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import ServerProfile
from repro.workload import EXTENDED_QUERY_TYPES

from ..wrappers.test_explain_bound import SPEEDS

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


def _total(database, plan, cpu, io):
    return database.estimate_plan(plan, ServerProfile("p", cpu, io)).total


@pytest.fixture(scope="module")
def candidates(sample_databases):
    """(text, database, candidate, total at (1, 1), C, I) of every
    candidate plan."""
    assert len(PINNED) >= 100
    out = []
    for sql in TEXTS:
        for database in sample_databases.values():
            for candidate in database.explain(sql):
                plan = candidate.plan
                unit = _total(database, plan, 1.0, 1.0)
                cpu = 2.0 * (unit - _total(database, plan, 2.0, 1.0))
                io = 2.0 * (unit - _total(database, plan, 1.0, 2.0))
                out.append((sql, database, candidate, unit, cpu, io))
    return out


@settings(deadline=None)
@given(speeds=st.tuples(st.sampled_from(SPEEDS), st.sampled_from(SPEEDS)))
def test_every_candidate_is_linear_in_the_profile(candidates, speeds):
    for sql, database, candidate, unit, cpu, io in candidates:
        plan, profile = candidate.plan, database.profile
        for total, (cpu_speed, io_speed) in (
            (unit, (1.0, 1.0)),
            (_total(database, plan, *speeds), speeds),
            (candidate.cost.total, (profile.cpu_speed, profile.io_speed)),
        ):
            linear = cpu / cpu_speed + io / io_speed
            assert math.isclose(total, linear, rel_tol=1e-12), (
                sql,
                plan.explain(),
                (cpu_speed, io_speed),
            )
