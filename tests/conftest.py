"""Shared fixtures.

Database construction dominates test time, so the expensive artifacts
(populated sample databases) are session-scoped and shared; anything
mutable (deployments, QCC state) is function-scoped and rebuilt from the
shared data.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.harness import DEFAULT_SERVER_SPECS, build_databases
from repro.sqlengine import (
    ColumnType,
    Database,
    ForeignKey,
    Serial,
    TableSpec,
    UniformFloat,
    UniformInt,
    populate,
)
from repro.workload import TEST_SCALE

#: ``--hypothesis-profile=soak``: what CI runs the reference properties
#: under (scheduler queue against its parent and its closed form in
#: bench-load, SQL front end in bench-e2e-smoke, aggregation and the
#: expression kernels in bench-engine), with a fixed
#: ``--hypothesis-seed`` (tests that pin ``max_examples`` themselves are
#: unaffected).
settings.register_profile("soak", max_examples=500, deadline=None)


@pytest.fixture(scope="session")
def sample_databases():
    """Fully loaded per-server sample databases at test scale."""
    return build_databases(DEFAULT_SERVER_SPECS, TEST_SCALE, seed=7)


@pytest.fixture(scope="session")
def tiny_specs():
    """A minimal two-table schema used across engine tests."""
    return (
        TableSpec(
            "dept",
            (
                ("deptno", ColumnType.INT, Serial()),
                ("budget", ColumnType.INT, UniformInt(10, 99)),
            ),
            row_count=20,
        ),
        TableSpec(
            "emp",
            (
                ("empno", ColumnType.INT, Serial()),
                ("deptno", ColumnType.INT, ForeignKey(20)),
                ("salary", ColumnType.FLOAT, UniformFloat(1000.0, 9000.0)),
            ),
            row_count=300,
        ),
    )


@pytest.fixture()
def tiny_db(tiny_specs):
    """A fresh dept/emp database (mutable per test)."""
    db = Database("tiny")
    populate(db, tiny_specs, seed=42)
    return db
