"""Unit tests for expression evaluation, including SQL NULL semantics."""

import pytest

from repro.sqlengine import (
    AggregateCall,
    And,
    Arithmetic,
    Column,
    ColumnRef,
    ColumnType,
    Comparison,
    ExpressionError,
    FuncCall,
    IsNull,
    Literal,
    Not,
    Or,
    Schema,
    parse_expression,
)
from repro.sqlengine.expressions import (
    combine_conjuncts,
    conjuncts,
    is_equijoin_conjunct,
    walk,
)

SCHEMA = Schema(
    (
        Column("a", ColumnType.INT, "t"),
        Column("b", ColumnType.FLOAT, "t"),
        Column("s", ColumnType.STR, "t"),
    )
)
ROW = (4, 2.5, "Hi")
NULL_ROW = (None, None, None)


def ev(expr, row=ROW):
    return expr.compile(SCHEMA)(row)


class TestLiteralsAndColumns:
    def test_literal(self):
        assert ev(Literal(42)) == 42
        assert ev(Literal(None)) is None

    def test_column_ref(self):
        assert ev(ColumnRef("a")) == 4
        assert ev(ColumnRef("t.b")) == 2.5

    def test_column_ref_properties(self):
        ref = ColumnRef("t.b")
        assert ref.bare_name == "b"
        assert ref.table == "t"
        assert ColumnRef("b").table is None


class TestComparison:
    def test_basic_ops(self):
        assert ev(Comparison("=", ColumnRef("a"), Literal(4))) is True
        assert ev(Comparison("<", ColumnRef("a"), Literal(4))) is False
        assert ev(Comparison(">=", ColumnRef("b"), Literal(2.5))) is True
        assert ev(Comparison("<>", ColumnRef("a"), Literal(5))) is True

    def test_null_propagates(self):
        expr = Comparison("=", ColumnRef("a"), Literal(4))
        assert expr.compile(SCHEMA)(NULL_ROW) is None

    def test_unknown_operator_rejected(self):
        with pytest.raises(ExpressionError):
            Comparison("~", Literal(1), Literal(2))


class TestThreeValuedLogic:
    def test_and_truth_table(self):
        t, f, n = Literal(True), Literal(False), Literal(None)
        assert ev(And(t, t)) is True
        assert ev(And(t, f)) is False
        assert ev(And(f, n)) is False  # False AND NULL = False
        assert ev(And(t, n)) is None
        assert ev(And(n, n)) is None

    def test_or_truth_table(self):
        t, f, n = Literal(True), Literal(False), Literal(None)
        assert ev(Or(f, f)) is False
        assert ev(Or(t, n)) is True  # True OR NULL = True
        assert ev(Or(f, n)) is None
        assert ev(Or(n, n)) is None

    def test_not(self):
        assert ev(Not(Literal(True))) is False
        assert ev(Not(Literal(None))) is None

    def test_is_null(self):
        assert ev(IsNull(ColumnRef("a")), NULL_ROW) is True
        assert ev(IsNull(ColumnRef("a"))) is False
        assert ev(IsNull(ColumnRef("a"), negated=True)) is True


class TestArithmetic:
    def test_basic(self):
        assert ev(Arithmetic("+", ColumnRef("a"), Literal(1))) == 5
        assert ev(Arithmetic("*", ColumnRef("b"), Literal(2))) == 5.0
        assert ev(Arithmetic("%", ColumnRef("a"), Literal(3))) == 1

    def test_division_by_zero_yields_null(self):
        assert ev(Arithmetic("/", Literal(1), Literal(0))) is None

    def test_null_propagates(self):
        assert ev(Arithmetic("+", Literal(None), Literal(1))) is None

    def test_result_type(self):
        assert (
            Arithmetic("/", ColumnRef("a"), Literal(2)).result_type(SCHEMA)
            is ColumnType.FLOAT
        )
        assert (
            Arithmetic("+", ColumnRef("a"), Literal(2)).result_type(SCHEMA)
            is ColumnType.INT
        )


class TestScalarFunctions:
    def test_functions(self):
        assert ev(FuncCall("UPPER", ColumnRef("s"))) == "HI"
        assert ev(FuncCall("LOWER", ColumnRef("s"))) == "hi"
        assert ev(FuncCall("LENGTH", ColumnRef("s"))) == 2
        assert ev(FuncCall("ABS", Literal(-3))) == 3

    def test_null_propagates(self):
        assert ev(FuncCall("UPPER", ColumnRef("s")), NULL_ROW) is None

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            FuncCall("NOPE", Literal(1))


class TestAggregateCall:
    def test_cannot_compile(self):
        agg = AggregateCall("COUNT", None)
        with pytest.raises(ExpressionError):
            agg.compile(SCHEMA)

    def test_star_only_for_count(self):
        with pytest.raises(ExpressionError):
            AggregateCall("SUM", None)

    def test_sql_rendering(self):
        assert AggregateCall("COUNT", None).sql() == "COUNT(*)"
        assert (
            AggregateCall("SUM", ColumnRef("a"), distinct=True).sql()
            == "SUM(DISTINCT a)"
        )

    def test_result_types(self):
        assert AggregateCall("COUNT", None).result_type(SCHEMA) is ColumnType.INT
        assert (
            AggregateCall("AVG", ColumnRef("a")).result_type(SCHEMA)
            is ColumnType.FLOAT
        )
        assert (
            AggregateCall("MAX", ColumnRef("s")).result_type(SCHEMA)
            is ColumnType.STR
        )


class TestConjunctHelpers:
    def test_conjuncts_split_and_rebuild(self):
        expr = parse_expression("a > 1 AND b < 2 AND s = 'x'")
        parts = conjuncts(expr)
        assert len(parts) == 3
        rebuilt = combine_conjuncts(parts)
        assert rebuilt.sql() == expr.sql()

    def test_conjuncts_of_none(self):
        assert conjuncts(None) == ()
        assert combine_conjuncts([]) is None

    def test_or_is_single_conjunct(self):
        expr = parse_expression("a > 1 OR b < 2")
        assert len(conjuncts(expr)) == 1

    def test_is_equijoin_conjunct(self):
        assert is_equijoin_conjunct(parse_expression("t.a = u.b"))
        assert not is_equijoin_conjunct(parse_expression("t.a = t.b"))
        assert not is_equijoin_conjunct(parse_expression("t.a = 5"))
        assert not is_equijoin_conjunct(parse_expression("t.a < u.b"))


def test_walk_visits_all_nodes():
    expr = parse_expression("(a + 1) * 2 > b AND NOT s = 'x'")
    kinds = [type(node).__name__ for node in walk(expr)]
    assert "And" in kinds
    assert "Arithmetic" in kinds
    assert "Not" in kinds
    assert kinds[0] == "And"  # root first (pre-order)


def test_sql_round_trip_through_parser():
    source = "((t.a + 1) > 2 AND s = 'it''s') OR b IS NOT NULL"
    expr = parse_expression(source)
    reparsed = parse_expression(expr.sql())
    assert reparsed.sql() == expr.sql()
