"""Unit tests for LIKE and IN predicates."""

import pytest

from repro.core import Calibration
from repro.sqlengine import (
    Column,
    ColumnType,
    InList,
    Like,
    ParseError,
    Schema,
    TypeMismatchError,
    parse_expression,
)
from repro.sqlengine.catalog import ColumnStats, TableStats
from repro.sqlengine.cost import StatsContext, estimate_selectivity

SCHEMA = Schema(
    (Column("s", ColumnType.STR, "t"), Column("n", ColumnType.INT, "t"))
)


def ev(text, row):
    return parse_expression(text).compile(SCHEMA)(row)


class TestLikeParsing:
    def test_like(self):
        expr = parse_expression("s LIKE 'abc%'")
        assert isinstance(expr, Like)
        assert expr.pattern == "abc%"
        assert not expr.negated

    def test_not_like(self):
        expr = parse_expression("s NOT LIKE '%x'")
        assert expr.negated

    def test_sql_round_trip(self):
        for text in ("s LIKE 'a%_b'", "s NOT LIKE 'it''s%'"):
            once = parse_expression(text).sql()
            assert parse_expression(once).sql() == once


class TestLikeEvaluation:
    @pytest.mark.parametrize(
        "pattern,value,expected",
        [
            ("abc", "abc", True),
            ("abc", "abcd", False),
            ("abc%", "abcdef", True),
            ("%def", "abcdef", True),
            ("%cd%", "abcdef", True),
            ("a_c", "abc", True),
            ("a_c", "abbc", False),
            ("%", "", True),
            ("a.c", "abc", False),  # regex metachars are escaped
        ],
    )
    def test_patterns(self, pattern, value, expected):
        escaped = pattern.replace("'", "''")
        assert ev(f"s LIKE '{escaped}'", (value, 0)) is expected

    def test_negated(self):
        assert ev("s NOT LIKE 'a%'", ("abc", 0)) is False
        assert ev("s NOT LIKE 'a%'", ("xyz", 0)) is True

    def test_null_propagates(self):
        assert ev("s LIKE 'a%'", (None, 0)) is None

    def test_non_string_rejected(self):
        with pytest.raises(TypeMismatchError):
            ev("n LIKE 'a%'", ("x", 5))


class TestInParsing:
    def test_in(self):
        expr = parse_expression("n IN (1, 2, 3)")
        assert isinstance(expr, InList)
        assert expr.values == (1, 2, 3)

    def test_not_in(self):
        assert parse_expression("n NOT IN (1)").negated

    def test_negative_literals(self):
        expr = parse_expression("n IN (-1, 2)")
        assert expr.values == (-1, 2)

    def test_strings(self):
        expr = parse_expression("s IN ('a', 'b')")
        assert expr.values == ("a", "b")

    def test_non_literal_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("n IN (n, 2)")

    def test_sql_round_trip(self):
        once = parse_expression("n NOT IN (1, 2)").sql()
        assert parse_expression(once).sql() == once


class TestInEvaluation:
    def test_membership(self):
        assert ev("n IN (1, 2, 3)", ("", 2)) is True
        assert ev("n IN (1, 2, 3)", ("", 9)) is False
        assert ev("n NOT IN (1, 2)", ("", 9)) is True

    def test_null_propagates(self):
        assert ev("n IN (1, 2)", ("", None)) is None


class TestSelectivity:
    STATS = StatsContext(
        {
            "t": TableStats(
                row_count=100,
                column_stats={
                    "n": ColumnStats(n_distinct=20, min_value=1, max_value=20),
                },
            )
        }
    )

    def sel(self, text):
        return estimate_selectivity(parse_expression(text), self.STATS)

    def test_in_scales_with_members(self):
        assert self.sel("t.n IN (1)") == pytest.approx(1 / 20)
        assert self.sel("t.n IN (1, 2, 3)") == pytest.approx(3 / 20)

    def test_in_duplicates_collapse(self):
        assert self.sel("t.n IN (1, 1, 1)") == pytest.approx(1 / 20)

    def test_not_in_complements(self):
        assert self.sel("t.n NOT IN (1, 2)") == pytest.approx(18 / 20)

    def test_like_prefix_more_selective_than_wildcard(self):
        prefix = self.sel("t.s LIKE 'abcdef%'")
        anywhere = self.sel("t.s LIKE '%abcdef%'")
        assert prefix < anywhere


class TestEndToEnd:
    def test_like_in_where_clause(self, sample_databases):
        db = sample_databases["S1"]
        rows = db.run(
            "SELECT COUNT(*) FROM customer WHERE segment LIKE 'M%'"
        ).rows
        expected = sum(
            1
            for r in db.storage.table("customer").rows
            if r[3].startswith("M")
        )
        assert rows == [(expected,)]

    def test_in_where_clause(self, sample_databases):
        db = sample_databases["S1"]
        rows = db.run(
            "SELECT COUNT(*) FROM customer WHERE nation IN (1, 2, 3)"
        ).rows
        expected = sum(
            1
            for r in db.storage.table("customer").rows
            if r[1] in (1, 2, 3)
        )
        assert rows == [(expected,)]

    def test_federated_like_query(self, sample_databases):
        from repro.harness import build_federation
        from repro.workload import TEST_SCALE

        deployment = build_federation(
            scale=TEST_SCALE, calibration=Calibration(),
            prebuilt_databases=sample_databases,
        )
        result = deployment.integrator.submit(
            "SELECT segment, COUNT(*) AS n FROM customer "
            "WHERE segment NOT LIKE 'A%' AND nation IN (1, 2, 3, 4, 5) "
            "GROUP BY segment"
        )
        direct = sample_databases["S1"].run(
            "SELECT segment, COUNT(*) AS n FROM customer "
            "WHERE segment NOT LIKE 'A%' AND nation IN (1, 2, 3, 4, 5) "
            "GROUP BY segment"
        )
        from repro.sqlengine import rows_equal_unordered

        assert rows_equal_unordered(result.rows, direct.rows)
