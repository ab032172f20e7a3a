"""Unit tests for INSERT / UPDATE / DELETE."""

import pytest

from repro.sqlengine import (
    Column,
    ColumnType,
    Database,
    DeleteStatement,
    DmlError,
    InsertStatement,
    ParseError,
    Schema,
    SelectStatement,
    TypeMismatchError,
    UpdateStatement,
    parse_statement,
)


@pytest.fixture()
def scanned_db():
    """``t(a INT, b STR)`` holding 1, 2, 3, with its columnar projection
    already built by a scan."""
    db = Database("t")
    db.create_table(
        "t", Schema((Column("a", ColumnType.INT), Column("b", ColumnType.STR)))
    )
    db.load_rows("t", [(1, "x"), (2, "y"), (3, "z")])
    assert db.run("SELECT a, b FROM t").rows == [(1, "x"), (2, "y"), (3, "z")]
    return db


def _unchanged(db):
    """The heap and a columnar scan still show the three loaded rows."""
    assert db.storage.table("t").rows == [(1, "x"), (2, "y"), (3, "z")]
    assert db.run("SELECT a, b FROM t").rows == [(1, "x"), (2, "y"), (3, "z")]


class TestDmlParsing:
    def test_insert_positional(self):
        statement = parse_statement("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
        assert isinstance(statement, InsertStatement)
        assert statement.table == "t"
        assert statement.columns == ()
        assert len(statement.rows) == 2

    def test_insert_with_columns(self):
        statement = parse_statement("INSERT INTO t (a, b) VALUES (1, 2)")
        assert statement.columns == ("a", "b")

    def test_update(self):
        statement = parse_statement(
            "UPDATE t SET a = a + 1, b = 'x' WHERE a > 5"
        )
        assert isinstance(statement, UpdateStatement)
        assert [a.column for a in statement.assignments] == ["a", "b"]
        assert statement.where is not None

    def test_update_without_where(self):
        statement = parse_statement("UPDATE t SET a = 0")
        assert statement.where is None

    def test_delete(self):
        statement = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(statement, DeleteStatement)
        assert statement.where is not None

    def test_select_dispatch(self):
        statement = parse_statement("SELECT * FROM t")
        assert isinstance(statement, SelectStatement)

    def test_garbage(self):
        with pytest.raises(ParseError):
            parse_statement("DROP TABLE t")

    def test_sql_round_trip(self):
        for sql in (
            "INSERT INTO t (a, b) VALUES (1, 'x')",
            "UPDATE t SET a = (a + 1) WHERE a > 5",
            "DELETE FROM t WHERE a = 1",
        ):
            once = parse_statement(sql).sql()
            assert parse_statement(once).sql() == once


class TestInsertExecution:
    def test_positional_insert(self, tiny_db):
        before = tiny_db.row_count("dept")
        result = tiny_db.run_dml("INSERT INTO dept VALUES (100, 42)")
        assert result.rows_affected == 1
        assert tiny_db.row_count("dept") == before + 1
        assert tiny_db.run("SELECT budget FROM dept WHERE deptno = 100").rows == [
            (42,)
        ]

    def test_column_list_fills_nulls(self, tiny_db):
        tiny_db.run_dml("INSERT INTO dept (deptno) VALUES (101)")
        rows = tiny_db.run("SELECT * FROM dept WHERE deptno = 101").rows
        assert rows == [(101, None)]

    def test_multi_row(self, tiny_db):
        result = tiny_db.run_dml(
            "INSERT INTO dept VALUES (102, 1), (103, 2), (104, 3)"
        )
        assert result.rows_affected == 3

    def test_arity_mismatch(self, tiny_db):
        with pytest.raises(DmlError):
            tiny_db.run_dml("INSERT INTO dept VALUES (1)")

    def test_non_constant_rejected(self, tiny_db):
        with pytest.raises(DmlError):
            tiny_db.run_dml("INSERT INTO dept VALUES (deptno, 1)")

    def test_an_inserted_key_is_found_by_equality(self, tiny_db):
        tiny_db.run_dml("INSERT INTO dept VALUES (200, 5)")
        rows = tiny_db.run("SELECT * FROM dept WHERE deptno = 200").rows
        assert rows == [(200, 5)]

    def test_work_metered(self, tiny_db):
        result = tiny_db.run_dml("INSERT INTO dept VALUES (300, 5)")
        assert result.meter.total_ms > 0

    def test_a_bad_later_row_inserts_none(self, scanned_db):
        with pytest.raises(TypeMismatchError):
            scanned_db.run_dml("INSERT INTO t VALUES (7, 'x'), ('oops', 'y')")
        _unchanged(scanned_db)

    def test_a_short_later_row_inserts_none(self, scanned_db):
        with pytest.raises(DmlError):
            scanned_db.run_dml("INSERT INTO t VALUES (7, 'x'), (8)")
        _unchanged(scanned_db)

    def test_multi_row_meter_is_per_row(self, tiny_db):
        one = tiny_db.run_dml("INSERT INTO dept VALUES (400, 1)").meter
        three = tiny_db.run_dml(
            "INSERT INTO dept VALUES (401, 1), (402, 2), (403, 3)"
        ).meter
        cpu = io = 0.0
        for _ in range(3):
            cpu += one.cpu_ms
            io += one.io_ms
        assert (three.cpu_ms, three.io_ms, three.tuples_out) == (cpu, io, 3)


class TestUpdateExecution:
    def test_update_with_predicate(self, tiny_db):
        result = tiny_db.run_dml(
            "UPDATE dept SET budget = budget + 100 WHERE deptno <= 5"
        )
        assert result.rows_affected == 5
        rows = tiny_db.run(
            "SELECT budget FROM dept WHERE deptno <= 5"
        ).rows
        assert all(budget > 100 for (budget,) in rows)

    def test_update_all_rows(self, tiny_db):
        result = tiny_db.run_dml("UPDATE dept SET budget = 0")
        assert result.rows_affected == 20
        assert tiny_db.run("SELECT SUM(budget) FROM dept").rows == [(0,)]

    def test_update_expression_uses_old_values(self, tiny_db):
        before = tiny_db.run("SELECT budget FROM dept WHERE deptno = 3").rows
        tiny_db.run_dml("UPDATE dept SET budget = budget * 2 WHERE deptno = 3")
        after = tiny_db.run("SELECT budget FROM dept WHERE deptno = 3").rows
        assert after[0][0] == before[0][0] * 2

    def test_an_updated_key_is_found_by_equality(self, tiny_db):
        tiny_db.run_dml("UPDATE dept SET deptno = 999 WHERE deptno = 7")
        assert tiny_db.run("SELECT * FROM dept WHERE deptno = 7").rows == []
        assert len(tiny_db.run("SELECT * FROM dept WHERE deptno = 999").rows) == 1

    def test_a_failing_update_changes_nothing(self, scanned_db):
        # Row 0 becomes NULL (1 / 0); row 1 fails (2 / 1 is 2.0, not INT).
        with pytest.raises(TypeMismatchError):
            scanned_db.run_dml("UPDATE t SET a = a / (a - 1)")
        _unchanged(scanned_db)

    def test_update_cost_scales_with_changes(self, tiny_db):
        small = tiny_db.run_dml(
            "UPDATE emp SET salary = salary WHERE empno = 1"
        )
        large = tiny_db.run_dml("UPDATE emp SET salary = salary + 0")
        assert large.meter.total_ms > small.meter.total_ms


class TestDeleteExecution:
    def test_delete_with_predicate(self, tiny_db):
        result = tiny_db.run_dml("DELETE FROM dept WHERE deptno > 15")
        assert result.rows_affected == 5
        assert tiny_db.row_count("dept") == 15

    def test_delete_all(self, tiny_db):
        result = tiny_db.run_dml("DELETE FROM dept")
        assert result.rows_affected == 20
        assert tiny_db.row_count("dept") == 0

    def test_a_deleted_key_is_not_found_by_equality(self, tiny_db):
        tiny_db.run_dml("DELETE FROM dept WHERE deptno = 7")
        assert tiny_db.run("SELECT * FROM dept WHERE deptno = 7").rows == []

    def test_stats_stay_stale_until_analyze(self, tiny_db):
        tiny_db.run_dml("DELETE FROM dept WHERE deptno > 10")
        assert tiny_db.catalog.lookup("dept").stats.row_count == 20
        tiny_db.analyze("dept")
        assert tiny_db.catalog.lookup("dept").stats.row_count == 10


class TestRunDmlDispatch:
    def test_select_rejected(self, tiny_db):
        with pytest.raises(DmlError):
            tiny_db.run_dml("SELECT * FROM dept")
