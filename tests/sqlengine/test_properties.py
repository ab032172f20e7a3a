"""Property-based tests for the engine's core invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import (
    Column,
    ColumnType,
    Database,
    Schema,
    parse_expression,
    rows_equal_unordered,
)
from repro.sqlengine.catalog import ColumnStats, TableStats
from repro.sqlengine.cost import StatsContext, estimate_selectivity

# ---------------------------------------------------------------------------
# Expression generation
# ---------------------------------------------------------------------------

_numbers = st.integers(min_value=0, max_value=999)
_columns = st.sampled_from(["t.a", "t.b"])


def _terms():
    return st.one_of(
        _numbers.map(lambda n: str(n)),
        _columns,
    )


@st.composite
def _predicates(draw, depth=2):
    if depth == 0:
        op = draw(st.sampled_from(["=", "<", ">", "<=", ">=", "!="]))
        left = draw(_terms())
        right = draw(_terms())
        return f"{left} {op} {right}"
    kind = draw(st.sampled_from(["leaf", "and", "or", "not"]))
    if kind == "leaf":
        return draw(_predicates(depth=0))
    if kind == "not":
        inner = draw(_predicates(depth=depth - 1))
        return f"NOT ({inner})"
    left = draw(_predicates(depth=depth - 1))
    right = draw(_predicates(depth=depth - 1))
    joiner = "AND" if kind == "and" else "OR"
    return f"({left}) {joiner} ({right})"


SCHEMA = Schema(
    (Column("a", ColumnType.INT, "t"), Column("b", ColumnType.INT, "t"))
)


class TestExpressionProperties:
    @given(_predicates())
    @settings(max_examples=80, deadline=None)
    def test_sql_rendering_is_fixed_point(self, text):
        expr = parse_expression(text)
        once = expr.sql()
        assert parse_expression(once).sql() == once

    @given(_predicates(), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=80, deadline=None)
    def test_evaluation_is_boolean_or_null(self, text, a, b):
        expr = parse_expression(text)
        value = expr.compile(SCHEMA)((a, b))
        assert value in (True, False, None)

    @given(_predicates(), st.integers(0, 100), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_not_negates(self, text, a, b):
        expr = parse_expression(text)
        negated = parse_expression(f"NOT ({text})")
        value = expr.compile(SCHEMA)((a, b))
        neg_value = negated.compile(SCHEMA)((a, b))
        if value is None:
            assert neg_value is None
        else:
            assert neg_value == (not value)


class TestSelectivityProperties:
    STATS = StatsContext(
        {
            "t": TableStats(
                row_count=1000,
                column_stats={
                    "a": ColumnStats(n_distinct=50, min_value=0, max_value=999),
                    "b": ColumnStats(n_distinct=10, min_value=0, max_value=999),
                },
            )
        }
    )

    @given(_predicates())
    @settings(max_examples=80, deadline=None)
    def test_selectivity_in_unit_interval(self, text):
        sel = estimate_selectivity(parse_expression(text), self.STATS)
        assert 0.0 < sel <= 1.0

    @given(_predicates(), _predicates())
    @settings(max_examples=50, deadline=None)
    def test_conjunction_never_increases_selectivity(self, left, right):
        combined = estimate_selectivity(
            parse_expression(f"({left}) AND ({right})"), self.STATS
        )
        alone = estimate_selectivity(parse_expression(left), self.STATS)
        assert combined <= alone + 1e-9


# ---------------------------------------------------------------------------
# Plan equivalence: every optimizer alternative computes the same result
# ---------------------------------------------------------------------------


@st.composite
def _join_queries(draw):
    predicate = draw(_predicates(depth=1))
    # Rebind t.* references onto the emp relation.
    predicate = predicate.replace("t.a", "e.deptno").replace("t.b", "e.salary")
    order = draw(st.sampled_from(["", " ORDER BY e.empno"]))
    limit = draw(st.sampled_from(["", " LIMIT 7"]))
    if limit and not order:
        order = " ORDER BY e.empno"  # keep LIMIT deterministic
    return (
        "SELECT e.empno, d.budget FROM emp e JOIN dept d "
        f"ON e.deptno = d.deptno WHERE {predicate}{order}{limit}"
    )


@pytest.fixture(scope="module")
def property_db(request):
    from repro.sqlengine import (
        ForeignKey,
        Serial,
        TableSpec,
        UniformInt,
        populate,
    )

    db = Database("prop")
    populate(
        db,
        [
            TableSpec(
                "dept",
                (
                    ("deptno", ColumnType.INT, Serial()),
                    ("budget", ColumnType.INT, UniformInt(10, 99)),
                ),
                row_count=12,
            ),
            TableSpec(
                "emp",
                (
                    ("empno", ColumnType.INT, Serial()),
                    ("deptno", ColumnType.INT, ForeignKey(12)),
                    ("salary", ColumnType.INT, UniformInt(0, 999)),
                ),
                row_count=120,
            ),
        ],
        seed=3,
    )
    return db


class TestPlanEquivalence:
    @given(_join_queries())
    @settings(max_examples=30, deadline=None)
    def test_all_alternatives_agree(self, property_db, sql):
        candidates = property_db.explain(sql)
        reference = property_db.run_plan(candidates[0].plan).rows
        for candidate in candidates[1:]:
            rows = property_db.run_plan(candidate.plan).rows
            if "ORDER BY" in sql and "LIMIT" not in sql:
                assert rows == reference
            else:
                assert rows_equal_unordered(rows, reference)

    @given(_join_queries())
    @settings(max_examples=30, deadline=None)
    def test_costs_positive_and_sorted(self, property_db, sql):
        candidates = property_db.explain(sql)
        totals = [c.cost.total for c in candidates]
        assert totals == sorted(totals)
        assert all(t > 0 for t in totals)
