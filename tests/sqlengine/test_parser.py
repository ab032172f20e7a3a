"""Unit tests for the SQL parser."""

import pytest
from hypothesis import given, strategies as st

from repro.sqlengine import ParseError, parse, parse_expression
from repro.sqlengine.expressions import Arithmetic, Literal, conjuncts
from repro.sqlengine.parser import tokenize


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.kind for t in tokens[:-1]] == ["KEYWORD"] * 3
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_numbers_and_strings(self):
        tokens = tokenize("12 3.5 'a''b'")
        assert [t.kind for t in tokens[:-1]] == ["NUMBER", "NUMBER", "STRING"]

    def test_operators(self):
        tokens = tokenize("<= >= <> != = < >")
        assert all(t.kind == "OP" for t in tokens[:-1])

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            tokenize("SELECT @")

    def test_eof_token(self):
        assert tokenize("")[-1].kind == "EOF"


class TestSelectParsing:
    def test_minimal(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.items == ()
        assert stmt.tables[0].name == "t"

    def test_items_with_aliases(self):
        stmt = parse("SELECT a AS x, b y, c FROM t")
        assert [i.alias for i in stmt.items] == ["x", "y", None]

    def test_table_alias_forms(self):
        stmt = parse("SELECT * FROM orders AS o, customer c")
        assert stmt.tables[0].binding == "o"
        assert stmt.tables[1].binding == "c"

    def test_join_clause(self):
        stmt = parse("SELECT * FROM a JOIN b ON a.x = b.y INNER JOIN c ON b.z = c.z")
        assert len(stmt.joins) == 2
        assert stmt.joins[0].table.name == "b"

    def test_where_group_having_order_limit(self):
        stmt = parse(
            "SELECT a, COUNT(*) AS n FROM t WHERE a > 1 "
            "GROUP BY a HAVING COUNT(*) > 2 ORDER BY a DESC, n LIMIT 7"
        )
        assert stmt.where is not None
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].ascending is True
        assert stmt.limit == 7

    def test_distinct(self):
        assert parse("SELECT DISTINCT a FROM t").distinct

    def test_star_table(self):
        stmt = parse("SELECT t.*, u.a FROM t, u")
        assert stmt.items[0].star_table == "t"
        assert stmt.items[1].expr is not None

    def test_between_desugars(self):
        stmt = parse("SELECT * FROM t WHERE a BETWEEN 1 AND 5")
        assert "a >= 1" in stmt.where.sql()
        assert "a <= 5" in stmt.where.sql()

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(a), AVG(DISTINCT b) FROM t")
        rendered = [i.expr.sql() for i in stmt.items]
        assert rendered == ["COUNT(*)", "SUM(a)", "AVG(DISTINCT b)"]

    def test_limit_must_be_integer(self):
        with pytest.raises(ParseError, match="integer"):
            parse("SELECT * FROM t LIMIT 1.5")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("SELECT * FROM t garbage !")

    def test_missing_from(self):
        with pytest.raises(ParseError, match="FROM"):
            parse("SELECT a")

    def test_unknown_function(self):
        with pytest.raises(ParseError, match="unknown function"):
            parse("SELECT NOPE(a) FROM t")


class TestExpressionParsing:
    def test_precedence_and_over_or(self):
        expr = parse_expression("a = 1 OR b = 2 AND c = 3")
        assert type(expr).__name__ == "Or"

    def test_precedence_mul_over_add(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.compile(_EMPTY)(()) == 7

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.compile(_EMPTY)(()) == 9

    def test_unary_minus(self):
        assert parse_expression("-5 + 1").compile(_EMPTY)(()) == -4

    def test_not(self):
        expr = parse_expression("NOT a = 1")
        assert type(expr).__name__ == "Not"

    def test_literals(self):
        assert parse_expression("NULL").value is None
        assert parse_expression("TRUE").value is True
        assert parse_expression("FALSE").value is False
        assert parse_expression("3.25").value == 3.25
        assert parse_expression("'it''s'").value == "it's"

    @pytest.mark.parametrize("value", ["-NULL", "-'x'"])
    def test_in_list_negates_only_numbers(self, value):
        with pytest.raises(ParseError, match="IN list values must be literals"):
            parse(f"SELECT c.a FROM c WHERE c.a IN (1, {value})")

    def test_in_list_negated_true_is_minus_one(self):
        # As in ``SELECT -TRUE``: TRUE is the number 1.
        statement = parse("SELECT c.a FROM c WHERE c.a IN (-TRUE)")
        assert statement.where.values == (-1,)

    def test_is_null_forms(self):
        assert parse_expression("a IS NULL").negated is False
        assert parse_expression("a IS NOT NULL").negated is True

    def test_qualified_reference(self):
        expr = parse_expression("t.a")
        assert expr.name == "t.a"


from repro.sqlengine import Schema  # noqa: E402

_EMPTY = Schema(())


class TestSqlRoundTrip:
    CASES = [
        "SELECT * FROM t",
        "SELECT a AS x, COUNT(*) AS n FROM t AS q WHERE q.a > 1 GROUP BY a",
        "SELECT a FROM t JOIN u ON t.x = u.y WHERE (a = 1 OR b = 2) ORDER BY a DESC LIMIT 3",
        "SELECT DISTINCT a, b FROM t WHERE s = 'x''y' AND a IS NOT NULL",
    ]

    @pytest.mark.parametrize("sql", CASES)
    def test_fixed_point(self, sql):
        once = parse(sql).sql()
        twice = parse(once).sql()
        assert once == twice


class TestNumberRule:
    """``digits[.digits][e[+-]digits]``: what ``Literal.sql()`` renders
    (``repr`` of a float) parses back to the same literal."""

    @pytest.mark.parametrize(
        "text, value",
        [("0.00001", 1e-05), ("1e-05", 1e-05), ("1e5", 100000.0), ("1E+3", 1000.0),
         ("2.5e-3", 0.0025), ("12345678901234567890.5", 1.2345678901234567e19),
         ("1.2345678901234567e+19", 1.2345678901234567e19), ("7", 7), ("7.0", 7.0)],
    )
    def test_literal_value_and_type(self, text, value):
        literal = parse_expression(text)
        assert literal == Literal(value)
        assert type(literal.value) is type(value)
        assert parse_expression(literal.sql()) == literal

    def test_small_float_survives_rendering(self):
        statement = parse("SELECT a FROM t WHERE a > 0.00001")
        assert statement.sql() == "SELECT a FROM t WHERE a > 1e-05"
        assert parse(statement.sql()) == statement

    def test_exponent_is_not_an_alias(self):
        (item,) = parse("SELECT 1e5 FROM t").items
        assert item.expr == Literal(100000.0) and item.alias is None

    @pytest.mark.parametrize(
        "sql, offset",
        [("SELECT 12abc FROM t", 7), ("SELECT 1e FROM t", 7), ("SELECT 1.5e+ FROM t", 7),
         ("SELECT a FROM t WHERE a > 3x", 26), ("SELECT 1_000 FROM t", 7)],
    )
    def test_number_glued_to_identifier_is_malformed(self, sql, offset):
        with pytest.raises(ParseError, match=f"malformed number at offset {offset}$"):
            parse(sql)

    @pytest.mark.parametrize(
        "number", ["1e999", "1" + "0" * 400 + ".0"], ids=["exponent", "decimal"]
    )
    def test_overflow_to_infinity_is_rejected(self, number):
        # Literal(inf).sql() is "inf": it would come back as a column.
        with pytest.raises(ParseError, match="out of range at offset 7"):
            parse(f"SELECT {number} FROM t")

    def test_limit_in_exponent_form_is_not_an_integer(self):
        with pytest.raises(ParseError, match="LIMIT must be an integer, got 1e2"):
            parse("SELECT * FROM t LIMIT 1e2")

    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_every_finite_float_round_trips(self, value):
        statement = parse(
            f"SELECT a FROM t WHERE a > {value!r} AND b IN ({value!r}, -{value!r}) "
            f"AND c < -{value!r}"
        )
        above, among, below = conjuncts(statement.where)
        assert above.right == Literal(value)
        assert among.values == (value, -value)
        assert below.right == Arithmetic("-", Literal(0), Literal(value))
        assert parse(statement.sql()) == statement
