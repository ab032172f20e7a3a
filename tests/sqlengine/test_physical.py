"""Unit tests for physical operators: correctness against brute force."""

import pytest

from repro.sqlengine import (
    Column,
    ColumnType,
    ExecutionError,
    MaterializedInput,
    Schema,
    rows_equal_unordered,
)
from repro.sqlengine.executor import execute_plan
from repro.sqlengine.physical import (
    Filter,
    HashJoin,
    Limit,
    NestedLoopJoin,
    SeqScan,
)
from repro.sqlengine.parser import parse_expression


@pytest.fixture()
def data(tiny_db):
    emp = list(tiny_db.storage.table("emp").rows)
    dept = list(tiny_db.storage.table("dept").rows)
    return tiny_db, emp, dept


def run(db, plan):
    return execute_plan(plan, db.storage)


class TestSeqScan:
    def test_full_scan(self, data):
        db, emp, _ = data
        plan = SeqScan(db.catalog.lookup("emp"), "emp")
        assert run(db, plan).rows == emp

    def test_predicate(self, data):
        db, emp, _ = data
        plan = SeqScan(
            db.catalog.lookup("emp"), "emp",
            parse_expression("emp.salary > 5000"),
        )
        expected = [r for r in emp if r[2] > 5000]
        assert run(db, plan).rows == expected

    def test_meters_work(self, data):
        db, _, _ = data
        result = run(db, SeqScan(db.catalog.lookup("emp"), "emp"))
        assert result.meter.cpu_ms > 0
        assert result.meter.io_ms > 0


class TestJoins:
    def _expected_join(self, emp, dept):
        return [e + d for e in emp for d in dept if e[1] == d[0]]

    def test_hash_join_matches_brute_force(self, data):
        db, emp, dept = data
        plan = HashJoin(
            SeqScan(db.catalog.lookup("emp"), "emp"),
            SeqScan(db.catalog.lookup("dept"), "dept"),
            ["emp.deptno"],
            ["dept.deptno"],
        )
        assert rows_equal_unordered(
            run(db, plan).rows, self._expected_join(emp, dept)
        )

    def test_nested_loop_equals_hash_join(self, data):
        db, emp, dept = data
        nl = NestedLoopJoin(
            SeqScan(db.catalog.lookup("emp"), "emp"),
            SeqScan(db.catalog.lookup("dept"), "dept"),
            parse_expression("emp.deptno = dept.deptno"),
        )
        assert rows_equal_unordered(
            run(db, nl).rows, self._expected_join(emp, dept)
        )

    def test_cross_join(self, data):
        db, emp, dept = data
        plan = NestedLoopJoin(
            SeqScan(db.catalog.lookup("dept"), "dept"),
            SeqScan(db.catalog.lookup("dept"), "d2"),
            None,
        )
        assert run(db, plan).row_count == len(dept) ** 2

    def test_hash_join_null_keys_dropped(self, data):
        db, _, _ = data
        schema = Schema((Column("k", ColumnType.INT, "l"),))
        left = MaterializedInput("l", schema, [(1,), (None,)])
        right = MaterializedInput(
            "r", Schema((Column("k", ColumnType.INT, "r"),)), [(1,), (None,)]
        )
        plan = HashJoin(left, right, ["l.k"], ["r.k"])
        assert run(db, plan).rows == [(1, 1)]

    def test_hash_join_key_mismatch_rejected(self, data):
        db, _, _ = data
        with pytest.raises(ExecutionError):
            HashJoin(
                SeqScan(db.catalog.lookup("emp"), "emp"),
                SeqScan(db.catalog.lookup("dept"), "dept"),
                [],
                [],
            )


class TestAggregation:
    def test_group_by_counts(self, tiny_db):
        emp = list(tiny_db.storage.table("emp").rows)
        result = tiny_db.run(
            "SELECT deptno, COUNT(*) AS n FROM emp GROUP BY deptno"
        )
        expected = {}
        for row in emp:
            expected[row[1]] = expected.get(row[1], 0) + 1
        assert dict((r[0], r[1]) for r in result.rows) == expected

    def test_sum_avg_min_max(self, tiny_db):
        emp = list(tiny_db.storage.table("emp").rows)
        result = tiny_db.run(
            "SELECT SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp"
        )
        salaries = [r[2] for r in emp]
        row = result.rows[0]
        assert row[0] == pytest.approx(sum(salaries))
        assert row[1] == pytest.approx(sum(salaries) / len(salaries))
        assert row[2] == min(salaries)
        assert row[3] == max(salaries)

    def test_count_distinct(self, tiny_db):
        emp = list(tiny_db.storage.table("emp").rows)
        result = tiny_db.run("SELECT COUNT(DISTINCT deptno) FROM emp")
        assert result.rows[0][0] == len({r[1] for r in emp})

    def test_global_aggregate_over_empty_input(self, tiny_db):
        result = tiny_db.run("SELECT COUNT(*) FROM emp WHERE salary > 1000000")
        assert result.rows == [(0,)]

    def test_group_by_over_empty_input_yields_no_groups(self, tiny_db):
        result = tiny_db.run(
            "SELECT deptno, COUNT(*) FROM emp WHERE salary > 1000000 "
            "GROUP BY deptno"
        )
        assert result.rows == []

    def test_having_filters_groups(self, tiny_db):
        with_having = tiny_db.run(
            "SELECT deptno, COUNT(*) AS n FROM emp GROUP BY deptno "
            "HAVING COUNT(*) > 15"
        )
        without = tiny_db.run(
            "SELECT deptno, COUNT(*) AS n FROM emp GROUP BY deptno"
        )
        expected = [r for r in without.rows if r[1] > 15]
        assert rows_equal_unordered(with_having.rows, expected)

    def test_expression_over_aggregates(self, tiny_db):
        result = tiny_db.run(
            "SELECT SUM(salary) / COUNT(*) AS manual_avg, AVG(salary) AS avg "
            "FROM emp"
        )
        manual, avg = result.rows[0]
        assert manual == pytest.approx(avg)

    def test_aggregate_ignores_nulls(self, tiny_db):
        tiny_db.storage.table("emp").insert((9999, 1, None))
        result = tiny_db.run("SELECT COUNT(salary), COUNT(*) FROM emp")
        count_col, count_star = result.rows[0]
        assert count_star == count_col + 1


class TestSortLimitDistinct:
    def test_sort_multi_key(self, tiny_db):
        result = tiny_db.run(
            "SELECT deptno, salary FROM emp ORDER BY deptno ASC, salary DESC"
        )
        rows = result.rows
        assert rows == sorted(rows, key=lambda r: (r[0], -r[1]))

    def test_sort_nulls_last(self, tiny_db):
        tiny_db.storage.table("emp").insert((9999, 1, None))
        result = tiny_db.run("SELECT salary FROM emp ORDER BY salary ASC")
        assert result.rows[-1] == (None,)

    def test_limit(self, tiny_db):
        result = tiny_db.run("SELECT empno FROM emp ORDER BY empno LIMIT 5")
        assert result.rows == [(i,) for i in range(1, 6)]

    def test_limit_zero(self, tiny_db):
        assert tiny_db.run("SELECT empno FROM emp LIMIT 0").rows == []

    def test_limit_exceeding_rows(self, tiny_db):
        result = tiny_db.run("SELECT deptno FROM dept LIMIT 1000")
        assert result.row_count == 20

    def test_negative_limit_rejected(self, tiny_db):
        plan = SeqScan(tiny_db.catalog.lookup("dept"), "dept")
        with pytest.raises(ExecutionError):
            Limit(plan, -1)

    def test_distinct(self, tiny_db):
        result = tiny_db.run("SELECT DISTINCT deptno FROM emp")
        emp = list(tiny_db.storage.table("emp").rows)
        assert sorted(r[0] for r in result.rows) == sorted({r[1] for r in emp})


class TestPlanMetadata:
    def test_signature_stable_and_distinct(self, tiny_db):
        scan_a = SeqScan(tiny_db.catalog.lookup("emp"), "emp")
        scan_b = SeqScan(tiny_db.catalog.lookup("emp"), "emp")
        scan_c = SeqScan(
            tiny_db.catalog.lookup("emp"), "emp",
            parse_expression("emp.salary > 1"),
        )
        assert scan_a.signature() == scan_b.signature()
        assert scan_a.signature() != scan_c.signature()

    def test_explain_is_indented_tree(self, tiny_db):
        plan = Filter(
            SeqScan(tiny_db.catalog.lookup("emp"), "emp"),
            parse_expression("emp.salary > 1"),
        )
        lines = plan.explain().splitlines()
        assert lines[0].startswith("Filter")
        assert lines[1].startswith("  SeqScan")
