"""Unit tests for II-side merge planning."""

import pytest

from repro.fed import (
    EstimatedInput,
    NicknameRegistry,
    build_merge_plan,
    decompose,
    estimate_merge_cost,
)
from repro.fed.nicknames import FederationError
from repro.sqlengine import (
    Catalog,
    MaterializedInput,
    REFERENCE_PROFILE,
    rows_equal_unordered,
)
from repro.sqlengine.executor import execute_plan
from repro.sqlengine.storage import StorageManager


@pytest.fixture()
def split_registry(sample_databases):
    registry = NicknameRegistry()
    db = sample_databases["S1"]
    registry.register("orders", "S1", table_def=db.catalog.lookup("orders"))
    registry.register("lineitem", "S2", table_def=db.catalog.lookup("lineitem"))
    return registry


SQL = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey "
    "WHERE o.totalprice > 5000 GROUP BY o.priority"
)


def _fragment_rows(sample_databases, decomposed):
    """Execute each fragment locally to produce realistic inputs."""
    db = sample_databases["S1"]
    inputs = {}
    for fragment in decomposed.fragments:
        rows = db.run(fragment.sql).rows
        inputs[fragment.fragment_id] = MaterializedInput(
            fragment.fragment_id, fragment.output_schema, rows
        )
    return inputs


class TestBuildMergePlan:
    def test_single_full_pushdown_is_identity(self, sample_databases):
        db = sample_databases["S1"]
        # both tables co-located -> single fragment
        registry = NicknameRegistry()
        for name in ("orders", "lineitem"):
            registry.register(name, "S1", table_def=db.catalog.lookup(name))
        decomposed = decompose(SQL, registry)
        leaf = MaterializedInput(
            "QF1", decomposed.fragments[0].output_schema, [(1, 2)]
        )
        assert build_merge_plan(decomposed, {"QF1": leaf}) is leaf

    def test_merge_matches_direct_execution(self, sample_databases, split_registry):
        decomposed = decompose(SQL, split_registry)
        assert len(decomposed.fragments) == 2
        inputs = _fragment_rows(sample_databases, decomposed)
        plan = build_merge_plan(decomposed, inputs)
        merged = execute_plan(plan, StorageManager(Catalog()))
        direct = sample_databases["S1"].run(SQL)
        assert rows_equal_unordered(merged.rows, direct.rows)

    def test_missing_input_rejected(self, split_registry):
        decomposed = decompose(SQL, split_registry)
        with pytest.raises(FederationError, match="missing input"):
            build_merge_plan(decomposed, {})

    def test_merge_uses_hash_join_on_cross_edge(self, split_registry, sample_databases):
        decomposed = decompose(SQL, split_registry)
        inputs = _fragment_rows(sample_databases, decomposed)
        plan = build_merge_plan(decomposed, inputs)
        assert "HashJoin" in plan.explain()


class TestEstimatedInput:
    def test_costing(self):
        from repro.sqlengine import Column, ColumnType, Schema
        from repro.sqlengine.cost import StatsContext
        from repro.sqlengine.physical import CostEstimator

        leaf = EstimatedInput(
            "x", Schema((Column("a", ColumnType.INT),)), 500.0
        )
        estimator = CostEstimator(REFERENCE_PROFILE, StatsContext({}))
        cost = leaf.estimate_cost(estimator)
        assert cost.rows == 500.0
        assert cost.total == 0.0

    def test_cannot_execute(self):
        from repro.sqlengine import Column, ColumnType, Schema

        leaf = EstimatedInput("x", Schema((Column("a", ColumnType.INT),)), 5.0)
        with pytest.raises(FederationError, match="compile-time only"):
            list(leaf.rows_columnar(None))


class TestEstimateMergeCost:
    def test_positive_and_scales_with_cardinality(self, split_registry):
        decomposed = decompose(SQL, split_registry)
        small = estimate_merge_cost(
            decomposed,
            {"QF1": 10.0, "QF2": 10.0},
            REFERENCE_PROFILE,
        )
        large = estimate_merge_cost(
            decomposed,
            {"QF1": 10_000.0, "QF2": 10_000.0},
            REFERENCE_PROFILE,
        )
        assert small.total > 0
        assert large.total > small.total
