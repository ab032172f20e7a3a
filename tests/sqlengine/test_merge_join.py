"""Unit tests for the sort-merge join operator."""

import pytest

from repro.sqlengine import (
    Column,
    ColumnType,
    MaterializedInput,
    OptimizerConfig,
    Schema,
    SortMergeJoin,
    rows_equal_unordered,
)
from repro.sqlengine.executor import execute_plan
from repro.sqlengine.physical import ExecutionError, HashJoin, SeqScan


def _input(name, rows):
    schema = Schema(
        (Column("k", ColumnType.INT, name), Column("v", ColumnType.STR, name))
    )
    return MaterializedInput(name, schema, rows)


def _run(db, plan):
    return execute_plan(plan, db.storage, db.params)


class TestSortMergeJoinCorrectness:
    def test_matches_hash_join(self, tiny_db):
        emp = SeqScan(tiny_db.catalog.lookup("emp"), "emp")
        dept = SeqScan(tiny_db.catalog.lookup("dept"), "dept")
        merge = SortMergeJoin(emp, dept, ["emp.deptno"], ["dept.deptno"])
        hash_join = HashJoin(
            SeqScan(tiny_db.catalog.lookup("emp"), "emp"),
            SeqScan(tiny_db.catalog.lookup("dept"), "dept"),
            ["emp.deptno"],
            ["dept.deptno"],
        )
        assert rows_equal_unordered(
            _run(tiny_db, merge).rows, _run(tiny_db, hash_join).rows
        )

    def test_duplicate_groups_cross_product(self, tiny_db):
        left = _input("l", [(1, "a"), (1, "b"), (2, "c")])
        right = _input("r", [(1, "x"), (1, "y"), (3, "z")])
        plan = SortMergeJoin(left, right, ["l.k"], ["r.k"])
        result = _run(tiny_db, plan)
        assert rows_equal_unordered(
            result.rows,
            [
                (1, "a", 1, "x"),
                (1, "a", 1, "y"),
                (1, "b", 1, "x"),
                (1, "b", 1, "y"),
            ],
        )

    def test_null_keys_dropped(self, tiny_db):
        left = _input("l", [(None, "a"), (1, "b")])
        right = _input("r", [(1, "x"), (None, "y")])
        plan = SortMergeJoin(left, right, ["l.k"], ["r.k"])
        assert _run(tiny_db, plan).rows == [(1, "b", 1, "x")]

    def test_empty_sides(self, tiny_db):
        left = _input("l", [])
        right = _input("r", [(1, "x")])
        plan = SortMergeJoin(left, right, ["l.k"], ["r.k"])
        assert _run(tiny_db, plan).rows == []

    def test_key_mismatch_rejected(self, tiny_db):
        left = _input("l", [])
        right = _input("r", [])
        with pytest.raises(ExecutionError):
            SortMergeJoin(left, right, [], [])

    def test_meters_work(self, tiny_db):
        left = _input("l", [(i, "a") for i in range(50)])
        right = _input("r", [(i, "b") for i in range(50)])
        plan = SortMergeJoin(left, right, ["l.k"], ["r.k"])
        result = _run(tiny_db, plan)
        assert result.meter.cpu_ms > 0


class TestOptimizerIntegration:
    def test_disabled_by_default(self, tiny_db):
        plans = tiny_db.explain(
            "SELECT e.empno FROM emp e JOIN dept d ON e.deptno = d.deptno"
        )
        for candidate in plans:
            assert "SortMergeJoin" not in candidate.plan.explain()

    def test_enabled_produces_merge_alternative(self, tiny_db):
        from repro.sqlengine.logical import bind
        from repro.sqlengine.optimizer import Optimizer
        from repro.sqlengine.parser import parse

        config = OptimizerConfig(
            keep_alternatives=6, enable_merge_join=True
        )
        block = bind(
            parse("SELECT e.empno FROM emp e JOIN dept d ON e.deptno = d.deptno"),
            tiny_db.catalog,
        )
        plans = Optimizer(tiny_db.profile, config).optimize(block)
        assert any(
            "SortMergeJoin" in c.plan.explain() for c in plans
        )
        # All alternatives still agree on the result.
        reference = tiny_db.run_plan(plans[0].plan).rows
        for candidate in plans[1:]:
            assert rows_equal_unordered(
                tiny_db.run_plan(candidate.plan).rows, reference
            )

    def test_database_keeps_every_config_field_under_custom_params(self):
        # Database re-homes the config on its own cost parameters; it
        # used to rebuild it field by field and forget enable_merge_join.
        from dataclasses import replace

        from repro.sqlengine import DEFAULT_COST_PARAMETERS, Database

        params = replace(DEFAULT_COST_PARAMETERS)
        config = OptimizerConfig(keep_alternatives=6, enable_merge_join=True)
        applied = Database(params=params, optimizer_config=config).optimizer.config
        assert applied == replace(config, params=params)
        assert applied.params is params

    def test_estimate_cost_positive_and_blocking(self, tiny_db):
        from repro.sqlengine.cost import StatsContext
        from repro.sqlengine.physical import CostEstimator

        emp = SeqScan(tiny_db.catalog.lookup("emp"), "emp")
        dept = SeqScan(tiny_db.catalog.lookup("dept"), "dept")
        plan = SortMergeJoin(emp, dept, ["emp.deptno"], ["dept.deptno"])
        estimator = CostEstimator(
            tiny_db.params,
            tiny_db.profile,
            StatsContext(
                {
                    "emp": tiny_db.catalog.lookup("emp").stats,
                    "dept": tiny_db.catalog.lookup("dept").stats,
                }
            ),
        )
        cost = plan.estimate_cost(estimator)
        assert cost.total > 0
        # Blocking operator: first tuple arrives near the end.
        assert cost.first_tuple > cost.total * 0.5
