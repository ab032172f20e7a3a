"""Unit tests for plan enumeration and selection."""

import math


from repro.sqlengine import rows_equal_unordered
from repro.sqlengine.physical import HashJoin, NestedLoopJoin, SeqScan


JOIN_SQL = (
    "SELECT e.empno, d.budget FROM emp e JOIN dept d "
    "ON e.deptno = d.deptno WHERE e.salary > 4000"
)


class TestAlternatives:
    def test_sorted_by_total_cost(self, tiny_db):
        plans = tiny_db.explain(JOIN_SQL)
        totals = [c.cost.total for c in plans]
        assert totals == sorted(totals)

    def test_at_most_k_returned(self, tiny_db):
        plans = tiny_db.explain(JOIN_SQL)
        assert 1 <= len(plans) <= 3

    def test_alternatives_have_distinct_signatures(self, tiny_db):
        plans = tiny_db.explain(JOIN_SQL)
        signatures = [c.plan.signature() for c in plans]
        assert len(signatures) == len(set(signatures))

    def test_all_alternatives_produce_same_result(self, tiny_db):
        plans = tiny_db.explain(JOIN_SQL)
        results = [tiny_db.run_plan(c.plan).rows for c in plans]
        for other in results[1:]:
            assert rows_equal_unordered(results[0], other)

    def test_estimates_finite_positive(self, tiny_db):
        for candidate in tiny_db.explain(JOIN_SQL):
            assert math.isfinite(candidate.cost.total)
            assert candidate.cost.total > 0
            assert candidate.cost.first_tuple <= candidate.cost.total
            assert candidate.cost.rows >= 0


class TestAccessPathChoice:
    def test_seq_scan_for_unindexed_column(self, tiny_db):
        best = tiny_db.explain("SELECT * FROM dept WHERE budget = 50")[0]
        assert isinstance(best.plan.children()[0], SeqScan)


def _walk_plans(plan):
    yield plan
    for child in plan.children():
        yield from _walk_plans(child)


class TestJoinPlanning:
    def test_hash_join_preferred_for_large_equijoin(self, tiny_db):
        best = tiny_db.explain(JOIN_SQL)[0]
        assert any(isinstance(n, HashJoin) for n in _walk_plans(best.plan))

    def test_nested_loop_offered_as_alternative(self, tiny_db):
        plans = tiny_db.explain(JOIN_SQL)
        assert any(
            any(isinstance(n, NestedLoopJoin) for n in _walk_plans(c.plan))
            for c in plans
        )

    def test_cross_join_when_disconnected(self, tiny_db):
        plans = tiny_db.explain("SELECT e.empno, d.deptno FROM emp e, dept d LIMIT 5")
        assert any(
            isinstance(n, NestedLoopJoin) for n in _walk_plans(plans[0].plan)
        )

    def test_three_way_join(self, sample_databases):
        db = sample_databases["S1"]
        plans = db.explain(
            "SELECT o.priority, COUNT(*) FROM orders o "
            "JOIN lineitem l ON o.orderkey = l.orderkey "
            "JOIN product p ON l.prodkey = p.prodkey "
            "WHERE p.price > 400 GROUP BY o.priority"
        )
        assert plans
        result = db.run_plan(plans[0].plan)
        assert result.meter.total_ms > 0


class TestCostSanity:
    def test_selective_predicate_cheaper_than_full_scan(self, sample_databases):
        db = sample_databases["S1"]
        full = db.explain("SELECT COUNT(*) FROM orders")[0].cost.total
        selective = db.explain(
            "SELECT COUNT(*) FROM orders WHERE totalprice > 9990"
        )[0].cost.total
        # Same scan work, but far fewer aggregate updates estimated.
        assert selective <= full

    def test_larger_table_costs_more(self, sample_databases):
        db = sample_databases["S1"]
        small = db.explain("SELECT COUNT(*) FROM customer")[0].cost.total
        large = db.explain("SELECT COUNT(*) FROM orders")[0].cost.total
        assert large > small

    def test_faster_profile_estimates_lower(self, sample_databases):
        s1 = sample_databases["S1"]
        s3 = sample_databases["S3"]
        sql = "SELECT COUNT(*) FROM orders WHERE totalprice > 5000"
        assert s3.explain(sql)[0].cost.total < s1.explain(sql)[0].cost.total
