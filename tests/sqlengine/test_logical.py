"""Unit tests for binding and query-block normalisation."""

import pytest

from repro.sqlengine import BindError, bind, parse


def _bind(sql, db):
    return bind(parse(sql), db.catalog)


class TestBindingBasics:
    def test_unknown_table(self, tiny_db):
        with pytest.raises(BindError, match="unknown table"):
            _bind("SELECT * FROM nope", tiny_db)

    def test_unknown_column(self, tiny_db):
        with pytest.raises(BindError):
            _bind("SELECT missing FROM emp", tiny_db)

    def test_duplicate_binding(self, tiny_db):
        with pytest.raises(BindError, match="duplicate"):
            _bind("SELECT * FROM emp, emp", tiny_db)

    def test_self_join_with_aliases_allowed(self, tiny_db):
        block = _bind(
            "SELECT a.empno FROM emp a, emp b WHERE a.empno = b.empno",
            tiny_db,
        )
        assert set(block.relations) == {"a", "b"}

    def test_ambiguous_column(self, tiny_db):
        with pytest.raises(BindError, match="ambiguous"):
            _bind("SELECT deptno FROM emp, dept", tiny_db)


class TestPredicateClassification:
    def test_local_predicate_pushed_to_relation(self, tiny_db):
        block = _bind("SELECT empno FROM emp WHERE salary > 100", tiny_db)
        assert block.relations["emp"].predicate is not None
        assert block.residual is None
        assert block.join_edges == ()

    def test_equijoin_becomes_edge(self, tiny_db):
        block = _bind(
            "SELECT e.empno FROM emp e, dept d WHERE e.deptno = d.deptno",
            tiny_db,
        )
        assert len(block.join_edges) == 1
        edge = block.join_edges[0]
        assert {edge.left_binding, edge.right_binding} == {"e", "d"}
        assert block.residual is None

    def test_join_on_clause_same_as_where(self, tiny_db):
        via_on = _bind(
            "SELECT e.empno FROM emp e JOIN dept d ON e.deptno = d.deptno",
            tiny_db,
        )
        via_where = _bind(
            "SELECT e.empno FROM emp e, dept d WHERE e.deptno = d.deptno",
            tiny_db,
        )
        assert via_on.join_edges == via_where.join_edges

    def test_non_equijoin_is_residual(self, tiny_db):
        block = _bind(
            "SELECT e.empno FROM emp e, dept d WHERE e.deptno < d.deptno",
            tiny_db,
        )
        assert block.join_edges == ()
        assert block.residual is not None

    def test_mixed_conjuncts_split(self, tiny_db):
        block = _bind(
            "SELECT e.empno FROM emp e, dept d "
            "WHERE e.deptno = d.deptno AND e.salary > 10 AND d.budget < 50",
            tiny_db,
        )
        assert len(block.join_edges) == 1
        assert block.relations["e"].predicate is not None
        assert block.relations["d"].predicate is not None

    def test_bare_columns_qualified(self, tiny_db):
        block = _bind("SELECT salary FROM emp WHERE salary > 10", tiny_db)
        assert block.relations["emp"].predicate.sql() == "emp.salary > 10"


class TestSelectListBinding:
    def test_select_star_expansion(self, tiny_db):
        block = _bind("SELECT * FROM dept", tiny_db)
        assert [c.name for c in block.output_schema.columns] == [
            "deptno",
            "budget",
        ]

    def test_star_table_expansion(self, tiny_db):
        block = _bind("SELECT d.* FROM emp e, dept d WHERE e.deptno = d.deptno", tiny_db)
        assert len(block.output_schema) == 2

    def test_output_names_and_types(self, tiny_db):
        block = _bind(
            "SELECT empno AS id, salary * 2 FROM emp", tiny_db
        )
        names = [c.name for c in block.output_schema.columns]
        assert names == ["id", "col1"]
        assert block.output_schema.columns[1].ctype.value == "FLOAT"


class TestAggregationValidation:
    def test_valid_group_by(self, tiny_db):
        block = _bind(
            "SELECT deptno, COUNT(*) FROM emp GROUP BY deptno", tiny_db
        )
        assert block.has_aggregation

    def test_global_aggregate(self, tiny_db):
        block = _bind("SELECT COUNT(*) FROM emp", tiny_db)
        assert block.has_aggregation
        assert block.group_by == ()

    def test_non_grouped_item_rejected(self, tiny_db):
        with pytest.raises(BindError, match="GROUP BY"):
            _bind("SELECT empno, COUNT(*) FROM emp GROUP BY deptno", tiny_db)

    def test_having_without_group_rejected(self, tiny_db):
        with pytest.raises(BindError, match="HAVING"):
            _bind("SELECT empno FROM emp HAVING empno > 1", tiny_db)

    def test_group_key_expression_allowed(self, tiny_db):
        block = _bind(
            "SELECT deptno % 2, COUNT(*) FROM emp GROUP BY deptno % 2",
            tiny_db,
        )
        assert block.has_aggregation


class TestJoinEdgeOrientation:
    def test_oriented(self, tiny_db):
        block = _bind(
            "SELECT e.empno FROM emp e, dept d WHERE e.deptno = d.deptno",
            tiny_db,
        )
        edge = block.join_edges[0]
        left_col, right_col = edge.oriented(frozenset({"e"}))
        assert left_col.startswith("e.")
        left_col, right_col = edge.oriented(frozenset({"d"}))
        assert left_col.startswith("d.")

    def test_connects(self, tiny_db):
        block = _bind(
            "SELECT e.empno FROM emp e, dept d WHERE e.deptno = d.deptno",
            tiny_db,
        )
        edge = block.join_edges[0]
        assert edge.connects(frozenset({"e"}), frozenset({"d"}))
        assert not edge.connects(frozenset({"e"}), frozenset({"x"}))


class TestBoundItemsHaveExpressions:
    """``bind`` expands ``*`` and ``t.*``, so every bound select item, and
    so every item an aggregate is built over, has an expression: the
    aggregate's ``_per_group`` counts its items, as its output does."""

    STARS = [
        "SELECT * FROM customer c",
        "SELECT DISTINCT c.* FROM customer c",
        "SELECT c.*, o.totalprice FROM customer c JOIN orders o ON c.custkey = o.custkey",
        "SELECT DISTINCT * FROM product p WHERE p.price > 10",
    ]

    def test_no_bound_item_and_no_aggregate_item_is_empty(self, sample_databases):
        from repro.sqlengine import physical as P
        from repro.workload import EXTENDED_QUERY_TYPES

        from ..integration.test_golden_meters import PINNED

        db = sample_databases["S1"]
        texts = self.STARS + [t.instance(0).sql for t in EXTENDED_QUERY_TYPES] + PINNED
        aggregates = 0
        for sql in texts:
            block = bind(parse(sql), db.catalog)
            assert all(item.expr is not None for item in block.items), sql
            stack = [candidate.plan for candidate in db.explain(sql)]
            while stack:
                node = stack.pop()
                stack.extend(node.children())
                if isinstance(node, P.HashAggregate):
                    aggregates += 1
                    assert all(item.expr is not None for item in node.items), sql
                    assert node._per_group == len(node.items) * P.CPU_OPERATOR_COST
        assert aggregates
