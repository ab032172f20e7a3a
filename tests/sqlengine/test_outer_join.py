"""Unit tests for LEFT OUTER JOIN."""

import pytest

from repro.core import Calibration
from repro.sqlengine import (
    BindError,
    Column,
    ColumnType,
    Database,
    Schema,
    bind,
    parse,
    rows_equal_unordered,
)


@pytest.fixture()
def db():
    database = Database("outer")
    database.create_table(
        "dept",
        Schema(
            (Column("deptno", ColumnType.INT), Column("name", ColumnType.STR))
        ),
    )
    database.load_rows(
        "dept", [(1, "eng"), (2, "ops"), (3, "sales"), (4, "empty")]
    )
    database.create_table(
        "emp",
        Schema(
            (
                Column("empno", ColumnType.INT),
                Column("deptno", ColumnType.INT),
                Column("salary", ColumnType.INT),
            )
        ),
    )
    database.load_rows(
        "emp",
        [
            (10, 1, 100),
            (11, 1, 200),
            (12, 2, 150),
            (13, None, 50),
        ],
    )
    return database


class TestParsing:
    def test_left_join(self):
        stmt = parse("SELECT * FROM a LEFT JOIN b ON a.x = b.y")
        assert stmt.joins[0].outer

    def test_left_outer_join(self):
        stmt = parse("SELECT * FROM a LEFT OUTER JOIN b ON a.x = b.y")
        assert stmt.joins[0].outer

    def test_inner_join_not_outer(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y")
        assert not stmt.joins[0].outer

    def test_sql_round_trip(self):
        sql = "SELECT a.x FROM a LEFT JOIN b ON a.x = b.y WHERE a.x > 1"
        once = parse(sql).sql()
        assert parse(once).sql() == once
        assert "LEFT JOIN" in once


class TestBinding:
    def test_fixed_chain_created(self, db):
        block = bind(
            parse(
                "SELECT d.name FROM dept d LEFT JOIN emp e "
                "ON d.deptno = e.deptno"
            ),
            db.catalog,
        )
        assert len(block.fixed_joins) == 1
        assert block.fixed_joins[0].outer
        assert block.fixed_join_root == "d"
        assert block.join_edges == ()

    def test_no_predicate_pushdown_with_outer(self, db):
        block = bind(
            parse(
                "SELECT d.name FROM dept d LEFT JOIN emp e "
                "ON d.deptno = e.deptno WHERE d.deptno > 1"
            ),
            db.catalog,
        )
        assert all(r.predicate is None for r in block.relations.values())
        assert block.residual is not None

    def test_comma_tables_rejected(self, db):
        with pytest.raises(BindError, match="comma-separated"):
            bind(
                parse(
                    "SELECT d.name FROM dept d, dept x LEFT JOIN emp e "
                    "ON d.deptno = e.deptno"
                ),
                db.catalog,
            )


class TestExecution:
    def test_unmatched_left_rows_null_padded(self, db):
        result = db.run(
            "SELECT d.deptno, d.name, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno"
        )
        expected = [
            (1, "eng", 10),
            (1, "eng", 11),
            (2, "ops", 12),
            (3, "sales", None),
            (4, "empty", None),
        ]
        assert rows_equal_unordered(result.rows, expected)

    def test_matches_inner_join_plus_unmatched(self, db):
        outer = db.run(
            "SELECT d.deptno, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno"
        )
        inner = db.run(
            "SELECT d.deptno, e.empno FROM dept d "
            "JOIN emp e ON d.deptno = e.deptno"
        )
        outer_matched = [r for r in outer.rows if r[1] is not None]
        assert rows_equal_unordered(outer_matched, inner.rows)
        unmatched = [r for r in outer.rows if r[1] is None]
        assert {r[0] for r in unmatched} == {3, 4}

    def test_on_condition_filters_before_preserving(self, db):
        # ON e.salary > 150: only high earners match; every dept row
        # survives regardless.
        result = db.run(
            "SELECT d.deptno, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno AND e.salary > 150"
        )
        expected = [(1, 11), (2, None), (3, None), (4, None)]
        assert rows_equal_unordered(result.rows, expected)

    def test_where_filters_after_join(self, db):
        # WHERE e.empno IS NULL: the anti-join idiom.
        result = db.run(
            "SELECT d.deptno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno "
            "WHERE e.empno IS NULL"
        )
        assert rows_equal_unordered(result.rows, [(3,), (4,)])

    def test_null_join_keys_never_match(self, db):
        # emp 13 has deptno NULL: inner side, so it simply never matches.
        result = db.run(
            "SELECT COUNT(*) FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno"
        )
        assert result.rows == [(5,)]

    def test_aggregation_over_outer_join(self, db):
        result = db.run(
            "SELECT d.name, COUNT(e.empno) AS n FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno GROUP BY d.name"
        )
        assert rows_equal_unordered(
            result.rows,
            [("eng", 2), ("ops", 1), ("sales", 0), ("empty", 0)],
        )

    def test_chained_outer_joins(self, db):
        db.create_table(
            "loc", Schema((Column("deptno", ColumnType.INT),
                           Column("city", ColumnType.STR)))
        )
        db.load_rows("loc", [(1, "SJ"), (3, "NY")])
        result = db.run(
            "SELECT d.deptno, e.empno, l.city FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno "
            "LEFT JOIN loc l ON d.deptno = l.deptno"
        )
        expected = [
            (1, 10, "SJ"),
            (1, 11, "SJ"),
            (2, 12, None),
            (3, None, "NY"),
            (4, None, None),
        ]
        assert rows_equal_unordered(result.rows, expected)

    def test_mixed_inner_then_outer(self, db):
        result = db.run(
            "SELECT d.deptno, e.empno FROM dept d "
            "JOIN emp e ON d.deptno = e.deptno "
            "LEFT JOIN dept x ON e.salary = x.deptno"
        )
        # inner join keeps depts 1,2; the outer to x never matches
        assert result.row_count == 3

    def test_plan_alternatives_agree(self, db):
        plans = db.explain(
            "SELECT d.deptno, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno = e.deptno"
        )
        assert len(plans) >= 2  # hash-profile and NLJ-profile
        reference = db.run_plan(plans[0].plan).rows
        for candidate in plans[1:]:
            assert rows_equal_unordered(
                db.run_plan(candidate.plan).rows, reference
            )

    def test_non_equi_on_uses_nested_loop(self, db):
        plans = db.explain(
            "SELECT d.deptno, e.empno FROM dept d "
            "LEFT JOIN emp e ON d.deptno < e.deptno"
        )
        assert "NestedLoopOuterJoin" in plans[0].plan.explain()


class TestFederatedOuterJoin:
    def test_outer_join_pushes_down_whole(self, sample_databases):
        from repro.harness import build_federation
        from repro.workload import TEST_SCALE

        deployment = build_federation(
            scale=TEST_SCALE, calibration=Calibration(),
            prebuilt_databases=sample_databases,
        )
        sql = (
            "SELECT c.nation, COUNT(o.orderkey) AS n FROM customer c "
            "LEFT JOIN orders o ON c.custkey = o.custkey "
            "GROUP BY c.nation"
        )
        result = deployment.integrator.submit(sql)
        direct = sample_databases["S1"].run(sql)
        assert rows_equal_unordered(result.rows, direct.rows)

    def test_outer_join_requires_colocation(self, sample_databases):
        from repro.fed import FederationError, NicknameRegistry, decompose

        registry = NicknameRegistry()
        db = sample_databases["S1"]
        registry.register("customer", "S1", table_def=db.catalog.lookup("customer"))
        registry.register("orders", "S2", table_def=db.catalog.lookup("orders"))
        with pytest.raises(FederationError):
            decompose(
                "SELECT c.nation FROM customer c LEFT JOIN orders o "
                "ON c.custkey = o.custkey",
                registry,
            )
