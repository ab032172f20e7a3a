"""Unit tests for the columnar engine: kernels, storage and operators.

Covers the kernel contract (``compile_columnar`` /
``compile_filter_columnar`` against the row evaluator: SQL NULL
semantics, three-valued AND/OR with short-circuit, identical error text,
over fixed cases and over drawn trees and rows), the column representations (lazily built table columns of
the row tuples' own values), the selection-vector contract
(filters narrow, never copy), the pinned LIMIT meter exception, the
operator paths (outer-join padding, NULL join keys, aggregate edge cases,
unique-build hash join and its build classification, COUNT(*)-only
grouping, single-column DISTINCT), and the observability surface
(per-operator selectivity in EXPLAIN ANALYZE, engine metrics).
"""

from __future__ import annotations

import math
import random
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.obs as obs
from repro.obs.profile import profiling, render_analyzed_plan
from repro.sqlengine import (
    And,
    Arithmetic,
    Column,
    ColumnBatch,
    ColumnRef,
    ColumnType,
    Comparison,
    Database,
    DEFAULT_BATCH_SIZE,
    ENGINES,
    FuncCall,
    HashAggregate,
    HashJoin,
    InList,
    IsNull,
    Like,
    Limit,
    Literal,
    NestedLoopJoin,
    Not,
    Or,
    Schema,
    SeqScan,
    SqlError,
    TypeMismatchError,
    ValueColumn,
    execute_plan,
    resolve_engine,
)
from repro.sqlengine import cost
from repro.sqlengine.columnar import TableColumn, TableColumns
from repro.sqlengine.expressions import (
    ARITHMETIC_OPS,
    COMPARISON_OPS,
    SCALAR_FUNCTIONS,
)
from repro.sqlengine.physical import MaterializedInput


def meter_tuple(result):
    meter = result.meter
    return (meter.cpu_ms, meter.io_ms, meter.tuples_out)


def run_plan(database, plan, batch_size=4):
    return {
        engine: execute_plan(
            plan,
            database.storage,
            engine=engine,
            batch_size=batch_size,
        )
        for engine in ENGINES
    }


def run_engines(database, sql, batch_size=4):
    plan = database.explain(sql)[0].plan
    return plan, run_plan(database, plan, batch_size)


def assert_plan_equivalent(database, plan, batch_size=4, what=None):
    results = run_plan(database, plan, batch_size)
    reference = results["row"]
    assert results["columnar"].rows == reference.rows, what
    assert meter_tuple(results["columnar"]) == meter_tuple(reference), what
    return results


def assert_all_equivalent(database, sql, batch_size=4):
    plan = database.explain(sql)[0].plan
    return assert_plan_equivalent(database, plan, batch_size, sql)


# -- the kernel contract ------------------------------------------------------

SCHEMA = Schema(
    (
        Column("a", ColumnType.INT, "t"),
        Column("b", ColumnType.FLOAT, "t"),
        Column("s", ColumnType.STR, "t"),
    )
)

ROWS = [
    (4, 2.5, "Hi"),
    (None, 1.0, "Hello"),
    (7, None, None),
    (0, -1.5, "World"),
]

#: Kernels must agree on plain value lists (operator intermediates), with
#: their nullability computed or declared, and on a stored table's lazily
#: built columns.
LAYOUTS = {
    "values": lambda rows: ColumnBatch.from_rows(rows, len(SCHEMA)),
    "declared": lambda rows: ColumnBatch(
        tuple(ValueColumn(list(c), nullable=None in c) for c in zip(*rows)),
        len(rows),
    ),
    "stored": lambda rows: TableColumns(rows, SCHEMA).batch(0, len(rows)),
}


def outcome(run):
    """What *run* returns, or the type and message of what it raises."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def agrees_with_row_engine(expr, rows=ROWS):
    """Value and selection kernels match the row evaluator, with and
    without a narrowing selection, on every layout: the same values, or
    the error the row evaluator raises first over the selected rows, of
    the same type and with the same message.  Returns the row
    evaluator's values (or its error) over all rows."""
    evaluate = expr.compile(SCHEMA)
    for layout in LAYOUTS.values():
        batch = layout(rows)
        for sel in (None, list(range(0, len(rows), 2))):
            view = batch if sel is None else batch.with_sel(sel)
            positions = range(len(rows)) if sel is None else sel
            expected = outcome(lambda: [evaluate(rows[i]) for i in positions])
            values = outcome(lambda: expr.compile_columnar(SCHEMA)(view))
            assert values == expected
            if isinstance(expected, list):
                expected = [i for i, v in zip(positions, expected) if v is True]
            selected = outcome(lambda: expr.compile_filter_columnar(SCHEMA)(view))
            assert selected == expected
    return outcome(lambda: [evaluate(row) for row in rows])


class TestKernels:
    def test_literal_broadcast(self):
        assert agrees_with_row_engine(Literal(42)) == [42] * 4
        assert agrees_with_row_engine(Literal(None)) == [None] * 4
        assert agrees_with_row_engine(Literal(True)) == [True] * 4

    def test_column_extraction(self):
        assert agrees_with_row_engine(ColumnRef("a")) == [4, None, 7, 0]
        assert agrees_with_row_engine(ColumnRef("t.s")) == [
            "Hi",
            "Hello",
            None,
            "World",
        ]

    def test_empty_batch(self):
        expr = Comparison(">", ColumnRef("a"), Literal(1))
        empty = TableColumns([], SCHEMA).batch(0, 0)
        assert expr.compile_columnar(SCHEMA)(empty) == []
        assert expr.compile_filter_columnar(SCHEMA)(empty) == []

    @pytest.mark.parametrize(
        "expr, expected",
        [
            (
                Comparison(">", ColumnRef("a"), Literal(1)),
                [True, None, True, False],
            ),
            (Comparison("=", ColumnRef("a"), Literal(None)), [None] * 4),
            (Comparison("<", Literal(1), ColumnRef("a")), [True, None, True, False]),
            (Comparison("<", ColumnRef("b"), ColumnRef("a")), [True, None, None, True]),
            (Comparison("=", ColumnRef("s"), Literal("Hi")), [True, False, None, False]),
            (Comparison("!=", ColumnRef("s"), Literal("Hi")), [False, True, None, True]),
            (
                Arithmetic("/", Literal(10), ColumnRef("a")),
                [2.5, None, 10 / 7, None],
            ),
            (
                Arithmetic("*", ColumnRef("b"), Literal(2.0)),
                [5.0, 2.0, None, -3.0],
            ),
            (Arithmetic("%", ColumnRef("a"), ColumnRef("a")), [0, None, 0, None]),
            (IsNull(ColumnRef("a")), [False, True, False, False]),
            (IsNull(ColumnRef("a"), negated=True), [True, False, True, True]),
            (Like(ColumnRef("s"), "H%"), [True, True, None, False]),
            (Like(ColumnRef("s"), "H%", negated=True), [False, False, None, True]),
            (InList(ColumnRef("a"), (0, 4)), [True, None, False, True]),
            (InList(ColumnRef("s"), ("Hi",), negated=True), [False, True, None, True]),
            (
                Not(Comparison(">", ColumnRef("a"), Literal(1))),
                [False, None, False, True],
            ),
        ],
        ids=lambda value: value.sql() if hasattr(value, "sql") else None,
    )
    def test_null_semantics(self, expr, expected):
        assert agrees_with_row_engine(expr) == expected

    @pytest.mark.parametrize(
        "expr",
        [
            Comparison(">", ColumnRef("a"), Literal("zzz")),
            Comparison(">", Literal("zzz"), ColumnRef("a")),
            Comparison(">", ColumnRef("a"), ColumnRef("s")),
            Arithmetic("+", ColumnRef("a"), Literal("zzz")),
            Arithmetic("+", ColumnRef("a"), ColumnRef("s")),
            Like(ColumnRef("a"), "4%"),
        ],
        ids=lambda expr: expr.sql(),
    )
    def test_type_mismatch_message_matches_row_engine(self, expr):
        with pytest.raises(TypeMismatchError) as row_err:
            expr.compile(SCHEMA)(ROWS[0])
        for layout in LAYOUTS.values():
            for compiled in (
                expr.compile_columnar(SCHEMA),
                expr.compile_filter_columnar(SCHEMA),
            ):
                with pytest.raises(TypeMismatchError) as batch_err:
                    compiled(layout(ROWS))
                assert str(batch_err.value) == str(row_err.value)

    @pytest.mark.parametrize("left", [True, False, None])
    @pytest.mark.parametrize("right", [True, False, None])
    def test_and_or_truth_tables(self, left, right):
        for connective in (And, Or):
            agrees_with_row_engine(
                connective(Literal(left), Literal(right)), [(1, 1.0, "x")]
            )

    def test_and_short_circuit_selection(self):
        # The right side must only be evaluated on surviving rows: a
        # type error lurking behind a False left conjunct never fires.
        safe = Comparison("=", ColumnRef("s"), Literal("Hi"))
        explosive = Comparison(">", ColumnRef("a"), Literal("boom"))
        rows = [(4, 2.5, "nope")]
        assert agrees_with_row_engine(And(safe, explosive), rows) == [False]
        for layout in LAYOUTS.values():
            with pytest.raises(TypeMismatchError):
                And(explosive, safe).compile_columnar(SCHEMA)(layout(rows))
            with pytest.raises(TypeMismatchError):
                And(explosive, safe).compile_filter_columnar(SCHEMA)(
                    layout(rows)
                )

    def test_or_short_circuit_selection(self):
        safe = Comparison("=", ColumnRef("s"), Literal("Hi"))
        explosive = Comparison(">", ColumnRef("a"), Literal("boom"))
        rows = [(4, 2.5, "Hi")]
        assert agrees_with_row_engine(Or(safe, explosive), rows) == [True]


# Drawn trees and rows for the contract.  Strings include format
# specifiers, because ``str % x`` formats (``"%s" % None`` is ``"None"``,
# where SQL says NULL), and ints stay small, because ``str * int``
# repeats.
STRINGS = st.sampled_from(("", "Hi", "%s", "a_%"))
NON_NULL = {
    "int": st.integers(-5, 5),
    "float": st.floats(-1e3, 1e3, allow_nan=False),
    "str": STRINGS,
}
SCALARS = st.one_of(st.none(), *NON_NULL.values())
NON_NULL["mixed"] = st.one_of(*NON_NULL.values())
COLUMN_REFS = st.sampled_from([ColumnRef("a"), ColumnRef("b"), ColumnRef("t.s")])
LITERALS = st.builds(Literal, SCALARS)


def _compound(children):
    return st.one_of(
        st.builds(Comparison, st.sampled_from(COMPARISON_OPS), children, children),
        st.builds(Arithmetic, st.sampled_from(ARITHMETIC_OPS), children, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Like, children, st.text("aH%_", max_size=4), st.booleans()),
        st.builds(
            InList, children, st.lists(SCALARS, max_size=3).map(tuple), st.booleans()
        ),
        st.builds(FuncCall, st.sampled_from(SCALAR_FUNCTIONS), children),
    )


#: Whole trees, plus the shapes with a kernel of their own drawn directly
#: (``col op lit`` selection, arithmetic over two column references).
EXPRESSIONS = st.one_of(
    st.recursive(st.one_of(COLUMN_REFS, LITERALS), _compound, max_leaves=6),
    st.builds(Comparison, st.sampled_from(COMPARISON_OPS), COLUMN_REFS, LITERALS),
    st.builds(Arithmetic, st.sampled_from(ARITHMETIC_OPS), COLUMN_REFS, COLUMN_REFS),
)


@st.composite
def drawn_rows(draw):
    """1–8 rows; each column holds one kind of value or all of them
    mixed, and may hold NULLs."""
    n = draw(st.integers(1, 8))
    columns = []
    for _ in SCHEMA.columns:
        values = NON_NULL[draw(st.sampled_from(sorted(NON_NULL)))]
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    return list(zip(*columns))


class TestKernelContract:
    """The contract over drawn trees and rows: every kernel, fast loop or
    fallback, equals the row evaluator (``agrees_with_row_engine``)."""

    @settings(deadline=None)
    @given(expr=EXPRESSIONS, rows=drawn_rows())
    # Cases draws reach only now and then, one per way a kernel can go
    # wrong: ``!=`` over NULLs (``None != 1`` is True), a comparison
    # loop's TypeError on a NULL-free column, ``"%s" % NULL`` in the pair
    # loop (only its NULL check keeps it NULL), and a LIKE operand that
    # raises on a later row than the LIKE test does.
    @example(
        expr=Comparison("!=", ColumnRef("a"), Literal(1)),
        rows=[(None, 0.0, ""), (2, 0.0, "")],
    )
    @example(
        expr=Comparison(">", ColumnRef("a"), Literal("Hi")),
        rows=[(1, 0.0, ""), (2, 0.0, "")],
    )
    @example(
        expr=Arithmetic("%", ColumnRef("t.s"), ColumnRef("a")),
        rows=[(None, 0.0, "%s"), (2, 0.0, "%s")],
    )
    @example(
        expr=Like(FuncCall("ABS", ColumnRef("a")), "%"),
        rows=[(1, 0.0, ""), ("Hi", 0.0, "")],
    )
    def test_kernels_agree_with_row_evaluator(self, expr, rows):
        agrees_with_row_engine(expr, rows)


# -- column representations --------------------------------------------------


class TestColumnData:
    def test_value_column_lazy_nullability(self):
        assert ValueColumn([1, None]).has_nulls()
        assert not ValueColumn([1, 2]).has_nulls()
        assert not ValueColumn([1, None], nullable=False).has_nulls()

    def test_stored_string_column_holds_the_row_tuples_own_values(self):
        database = Database("cols")
        database.create_table(
            "t",
            Schema(
                [Column("x", ColumnType.INT), Column("s", ColumnType.STR)]
            ),
        )
        # Equal strings that are distinct objects: a column that shares
        # one object per distinct value (an encoding) is caught by ``is``.
        database.load_rows(
            "t", [(i, None if i == 2 else "".join(("s", str(i % 2)))) for i in range(5)]
        )
        table = database.storage.table("t")
        s = table.columnar().cols[1]
        assert s.values() == ["s0", "s1", None, "s1", "s0"]
        assert all(v is row[1] for v, row in zip(s.values(), table.rows))
        assert isinstance(s._col, ValueColumn) and s.has_nulls()

    def test_table_columns_are_built_on_first_read_and_hold_one_copy(self):
        database = Database("lazy")
        database.create_table(
            "t",
            Schema(
                [
                    Column("x", ColumnType.INT),
                    Column("y", ColumnType.FLOAT),
                    Column("s", ColumnType.STR),
                ]
            ),
        )
        database.load_rows("t", [(i, i / 2, f"s{i % 3}") for i in range(10)])
        table = database.storage.table("t")
        result = database.run("SELECT t.x FROM t WHERE t.x > 4")
        assert result.rows == [(i,) for i in range(5, 10)]
        x, y, s = table.columnar().cols
        assert all(isinstance(col, TableColumn) for col in (x, y, s))
        # Only the column the query read exists, as the one list of the
        # row tuples' own value objects — no typed copy next to it.
        assert y._col is None and s._col is None
        assert isinstance(x._col, ValueColumn)
        assert all(a is row[0] for a, row in zip(x.values(), table.rows))
        # Scan windows are views: nothing per-window is kept on the table.
        first = table.columnar().batch(0, 4)
        assert first.cols[0].values() == [0, 1, 2, 3]
        assert table.columnar().batch(0, 4).cols[0] is not first.cols[0]
        # A mutation invalidates the projection.
        database.load_rows("t", [(10, 5.0, "s1")])
        assert table.columnar().n_rows == 11
        assert table.columnar().cols[0]._col is None


# -- selection vectors ------------------------------------------------------


class TestSelectionVectors:
    def batch(self):
        return ColumnBatch(
            (
                ValueColumn([10, 11, 12, 13]),
                ValueColumn(["a", "b", "c", "d"]),
            ),
            4,
            None,
        )

    def test_with_sel_shares_columns(self):
        batch = self.batch()
        narrowed = batch.with_sel([1, 3])
        assert narrowed.cols is batch.cols  # no copy, only the selection
        assert len(narrowed) == 2
        assert narrowed.n_rows == 4
        assert narrowed.materialize() == [(11, "b"), (13, "d")]

    def test_first_n_narrows_selection(self):
        batch = self.batch().with_sel([0, 2, 3])
        assert batch.first_n(2).materialize() == [(10, "a"), (12, "c")]

    def test_column_values_respect_selection(self):
        batch = self.batch().with_sel([2])
        assert batch.column_values(1) == ["c"]

    def test_empty_batch(self):
        empty = ColumnBatch((), 3, None)
        assert empty.materialize() == [(), (), ()]


# -- the pinned LIMIT meter exception ---------------------------------------


class TestLimitMeters:
    @pytest.fixture()
    def tiny_db(self):
        database = Database("limit")
        database.create_table(
            "t", Schema([Column("x", ColumnType.INT)])
        )
        database.load_rows("t", [(i,) for i in range(10)])
        database.analyze()
        return database

    def test_limit_scans_to_batch_boundary(self, tiny_db):
        # 10-row table, batch_size=4, LIMIT 6: the row engine stops
        # after metering exactly 6 rows; the columnar engine finishes the
        # second batch and meters 8.  This is the one documented meter
        # divergence (docs/execution.md).
        _plan, full = run_engines(tiny_db, "SELECT x FROM t")
        per_row = full["row"].meter.cpu_ms / 10
        _plan, limited = run_engines(tiny_db, "SELECT x FROM t LIMIT 6")

        reference = limited["row"]
        for engine in ENGINES:
            assert limited[engine].rows == reference.rows
            assert limited[engine].meter.tuples_out == 6
            assert limited[engine].meter.io_ms == reference.meter.io_ms

        scanned = {
            engine: round(limited[engine].meter.cpu_ms / per_row)
            for engine in ENGINES
        }
        assert scanned == {"row": 6, "columnar": 8}

    def test_limit_over_join_meters_whole_left_batches(self, tiny_db):
        # LIMIT 5 over a 10 x 3 cross product, batch_size=4: the
        # columnar join pairs its whole first left batch (4 x 3) before
        # the limit abandons it; the row join stops inside its second
        # left row (3 + 2 pairs).  Abandoned streams charge bottom-up,
        # in the same order as exhausted ones.
        tiny_db.create_table("u", Schema([Column("y", ColumnType.INT)]))
        tiny_db.load_rows("u", [(i,) for i in range(3)])
        catalog = tiny_db.catalog
        results = {}
        for engine in ENGINES:
            plan = Limit(
                NestedLoopJoin(
                    SeqScan(catalog.lookup("t"), "t"),
                    SeqScan(catalog.lookup("u"), "u"),
                ),
                5,
            )
            results[engine] = execute_plan(
                plan, tiny_db.storage, engine=engine, batch_size=4
            )
        assert results["columnar"].rows == results["row"].rows
        assert len(results["row"].rows) == 5

        def charged(left_rows, pairs):
            total = 0.0
            for term in (
                3 * cost.CPU_TUPLE_COST,  # inner scan, drained
                3 * cost.MATERIALIZE_TUPLE_COST,
                left_rows * cost.CPU_TUPLE_COST,
                pairs * cost.CPU_OPERATOR_COST,
            ):
                total += term
            return total

        assert results["columnar"].meter.cpu_ms == charged(4, 12)
        assert results["row"].meter.cpu_ms == charged(2, 5)
        assert results["columnar"].meter.io_ms == results["row"].meter.io_ms


# -- operator fast paths ----------------------------------------------------


@pytest.fixture(scope="module")
def ops_db():
    database = Database("ops")
    database.create_table(
        "dim",
        Schema(
            [
                Column("k", ColumnType.INT),
                Column("name", ColumnType.STR),
            ]
        ),
    )
    # Unique build keys (one row per k).
    database.load_rows(
        "dim", [(i, f"name_{i % 3}") for i in range(8)]
    )
    database.create_table(
        "fact",
        Schema(
            [
                Column("k", ColumnType.INT),
                Column("v", ColumnType.FLOAT),
                Column("tag", ColumnType.STR),
            ]
        ),
    )
    database.load_rows(
        "fact",
        [
            (i % 10, float(i), ["x", "y", None][i % 3])
            for i in range(40)
        ],
    )
    database.analyze()
    return database


class TestOperatorFastPaths:
    def test_unique_build_join_full_match(self, ops_db):
        # Every fact row with k < 8 matches exactly one dim row: the
        # passthrough gather path.
        assert_all_equivalent(
            ops_db,
            "SELECT f.v, d.name FROM fact f, dim d "
            "WHERE f.k = d.k AND f.k < 8",
        )

    def test_unique_build_join_partial_match(self, ops_db):
        # k in {8, 9} has no dim row: probe misses interleave with hits.
        assert_all_equivalent(
            ops_db,
            "SELECT f.v, d.name FROM fact f, dim d WHERE f.k = d.k",
        )

    def test_unique_build_outer_join_padding(self, ops_db):
        results = assert_all_equivalent(
            ops_db,
            "SELECT f.v, d.name FROM fact f "
            "LEFT JOIN dim d ON f.k = d.k",
        )
        assert any(
            name is None for _v, name in results["columnar"].rows
        )

    def test_non_unique_build_join(self, ops_db):
        # dim.name repeats: the general multi-match probe path.
        assert_all_equivalent(
            ops_db,
            "SELECT d1.k, d2.k FROM dim d1, dim d2 "
            "WHERE d1.name = d2.name",
        )

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT f.k, COUNT(*) FROM fact f GROUP BY f.k",
            "SELECT f.tag, COUNT(*) FROM fact f GROUP BY f.tag",
            "SELECT f.k, f.tag, COUNT(*) FROM fact f GROUP BY f.k, f.tag",
        ],
        ids=["int-key", "str-key", "multi-key"],
    )
    def test_count_only_grouping(self, ops_db, sql):
        assert_all_equivalent(ops_db, sql)

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT DISTINCT f.k FROM fact f",
            "SELECT DISTINCT f.tag FROM fact f",
            "SELECT DISTINCT f.v FROM fact f",
            "SELECT DISTINCT f.k, f.tag FROM fact f",
        ],
        ids=["int", "str-with-null", "float", "multi"],
    )
    def test_distinct_paths(self, ops_db, sql):
        assert_all_equivalent(ops_db, sql)

    def test_like_and_in_over_strings(self, ops_db):
        assert_all_equivalent(
            ops_db,
            "SELECT f.v FROM fact f WHERE f.tag LIKE 'x%'",
        )
        assert_all_equivalent(
            ops_db,
            "SELECT f.v FROM fact f WHERE f.tag NOT IN ('y')",
        )


# -- hash-join build classification -----------------------------------------
#
# The build side is classified unique / not unique in one pass of
# ``dict.update`` per batch.  Every case runs at a batch size that puts
# the interesting rows in the same or in different build batches, and
# compares rows in order and both meters with ``==`` against the row
# engine.

_KEY_SCHEMAS = {
    side: Schema(
        (
            Column("k1", ColumnType.FLOAT, side),
            Column("k2", ColumnType.INT, side),
            Column("tag", ColumnType.STR, side),
        )
    )
    for side in ("p", "b")
}

PROBE_ROWS = [
    (1, 1, "p0"),
    (2, 1, "p1"),
    (None, 1, "p2"),
    (1.0, None, "p3"),
    (3, 2, "p4"),
    (True, 1, "p5"),
    (9, 9, "p6"),
    (2, 2, "p7"),
    (4, 1, "p8"),
]

BUILD_CASES = {
    "unique": [(1, 1, "a"), (2, 1, "b"), (3, 2, "c"), (4, 1, "d"), (5, 1, "e")],
    # Batch size 4: the repeat of key 2 sits in the first batch ...
    "duplicate-in-one-batch": [
        (1, 1, "a"), (2, 1, "b"), (2, 1, "c"), (3, 2, "d"), (4, 1, "e"),
    ],
    # ... and here only the second batch repeats a first-batch key.
    "duplicate-across-batches": [
        (1, 1, "a"), (2, 1, "b"), (3, 2, "c"), (4, 1, "d"), (2, 1, "e"),
    ],
    "only-repeat-is-null": [
        (None, 1, "a"), (1, 1, "b"), (None, 1, "c"), (2, 1, "d"),
        (None, 1, "e"), (3, 2, "f"),
    ],
    "all-null": [(None, 1, "a"), (None, 1, "b"), (None, None, "c")],
    "empty": [],
    # Unique on (k1, k2) once the rows with a NULL component are dropped;
    # k1 alone repeats, so the single-key join takes the bucket path.
    "null-component": [
        (1, 1, "a"), (1, None, "b"), (None, 1, "c"), (1, None, "d"),
        (2, 1, "e"), (2, 2, "f"), (None, None, "g"),
    ],
    # 1, 1.0 and True are one dict key: a duplicate, not three keys.
    "numeric-collisions": [(1, 1, "a"), (2, 1, "b"), (1.0, 1, "c"), (True, 1, "d")],
}


class TestHashJoinBuildClassification:
    def run_both(self, build_rows, keys, residual=None, outer=False, batch_size=4):
        plan = HashJoin(
            MaterializedInput("probe", _KEY_SCHEMAS["p"], PROBE_ROWS),
            MaterializedInput("build", _KEY_SCHEMAS["b"], build_rows),
            [f"p.{k}" for k in keys],
            [f"b.{k}" for k in keys],
            residual=residual,
            outer=outer,
        )
        results = assert_plan_equivalent(Database("classify"), plan, batch_size)
        return results["columnar"].rows

    @pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
    @pytest.mark.parametrize("keys", [("k1",), ("k1", "k2")], ids=["single", "composite"])
    @pytest.mark.parametrize("case", BUILD_CASES)
    @pytest.mark.parametrize("batch_size", [1, 4, DEFAULT_BATCH_SIZE])
    def test_matches_row_engine(self, case, keys, outer, batch_size):
        rows = self.run_both(
            BUILD_CASES[case], keys, outer=outer, batch_size=batch_size
        )
        if outer:
            assert any(r[5] is None for r in rows)
            assert {r[2] for r in rows} == {r[2] for r in PROBE_ROWS}
        if not BUILD_CASES[case] or case == "all-null":
            assert all(r[5] is None for r in rows)

    def test_duplicate_across_batches_keeps_every_match(self):
        rows = self.run_both(BUILD_CASES["duplicate-across-batches"], ("k1",))
        assert [r[5] for r in rows if r[2] == "p1"] == ["b", "e"]

    def test_collisions_match_every_numeric_spelling(self):
        rows = self.run_both(BUILD_CASES["numeric-collisions"], ("k1",))
        for probe in ("p0", "p3", "p5"):
            assert [r[5] for r in rows if r[2] == probe] == ["a", "c", "d"]

    def test_null_component_never_matches(self):
        rows = self.run_both(BUILD_CASES["null-component"], ("k1", "k2"))
        assert [(r[2], r[5]) for r in rows] == [
            ("p0", "a"), ("p1", "e"), ("p5", "a"), ("p7", "f"),
        ]

    @pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
    @pytest.mark.parametrize(
        "case", ["unique", "duplicate-across-batches", "null-component", "empty"]
    )
    def test_residual(self, case, outer):
        # On a unique build the residual path walks one-element buckets
        # wrapped around the classification dict.
        residual = Comparison("<", ColumnRef("p.k2"), ColumnRef("b.k1"))
        rows = self.run_both(
            BUILD_CASES[case], ("k1",), residual=residual, outer=outer
        )
        assert all(r[5] is None or r[1] < r[3] for r in rows)
        if case == "unique":
            matched = [(r[2], r[5]) for r in rows if r[5] is not None]
            assert matched == [("p1", "b"), ("p4", "c"), ("p8", "d")]

    @pytest.mark.parametrize("batch_size", [1, 4, DEFAULT_BATCH_SIZE])
    @pytest.mark.parametrize("case", ["unique", "duplicate-in-one-batch"])
    def test_first_build_row_matches(self, case, batch_size):
        # Build row ids start at 1, after the NULL row: id 1 is a hit.
        rows = self.run_both(BUILD_CASES[case], ("k1",), batch_size=batch_size)
        assert [r[3:] for r in rows if r[2] == "p0"] == [(1.0, 1, "a")]

    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    @pytest.mark.parametrize("keys", [("k1",), ("k1", "k2")], ids=["single", "composite"])
    @pytest.mark.parametrize("case", ["unique", "duplicate-across-batches"])
    def test_outer_misses_and_null_keys_gather_the_null_row(self, case, keys, residual):
        rows = self.run_both(
            BUILD_CASES[case],
            keys,
            residual=(
                Comparison("<", ColumnRef("b.k2"), Literal(10))
                if residual
                else None
            ),
            outer=True,
        )
        padded = [r[2] for r in rows if r[3:] == (None, None, None)]
        # p2 has a NULL k1 and p6 misses; on the composite key p3's NULL
        # k2 spoils the key and p7's (2, 2) misses.  Each is padded once.
        expected = ["p2", "p3", "p6", "p7"] if len(keys) == 2 else ["p2", "p6"]
        assert padded == expected

    @pytest.mark.parametrize("batch_size", [1, 4, DEFAULT_BATCH_SIZE])
    @pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
    @pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
    @pytest.mark.parametrize("where", [False, True], ids=["all", "selected"])
    @pytest.mark.parametrize("build", ["unique", "repeated"])
    def test_string_probe_null_key_is_a_miss(
        self, build, where, residual, outer, batch_size
    ):
        # A stored string column reaches the probe: a NULL key and a
        # string the build lacks both miss.
        database = Database("str-probe")
        database.create_table(
            "probe",
            Schema((Column("tag", ColumnType.STR), Column("n", ColumnType.INT))),
        )
        database.load_rows(
            "probe",
            [("a", 0), (None, 1), ("c", 2), ("zz", 3), ("b", 4), (None, 5), ("a", 6)],
        )
        builds = {
            "unique": BUILD_CASES["unique"],
            "repeated": [(1, 1, "a"), (2, 1, "b"), (3, 2, "a"), (None, 1, None)],
        }
        probe = SeqScan(
            database.catalog.lookup("probe"),
            "p",
            Comparison(">", ColumnRef("p.n"), Literal(0)) if where else None,
        )
        plan = HashJoin(
            probe,
            MaterializedInput("build", _KEY_SCHEMAS["b"], builds[build]),
            ["p.tag"],
            ["b.tag"],
            residual=(
                Comparison(
                    "<", ColumnRef("b.k1"), Arithmetic("+", ColumnRef("p.n"), Literal(2))
                )
                if residual
                else None
            ),
            outer=outer,
        )
        rows = assert_plan_equivalent(database, plan, batch_size)["columnar"].rows
        assert all(r[2:] == (None, None, None) for r in rows if r[0] in (None, "zz"))
        assert any(r[4] == r[0] for r in rows)
        if outer:
            assert {r[1] for r in rows} == ({1, 2, 3, 4, 5, 6} if where else set(range(7)))


# -- float aggregates are left folds ----------------------------------------
#
# SUM / AVG must be the row engine's ``total + value`` fold bit for bit at
# every batch size, across batch boundaries.  Any other order or grouping
# of these additions rounds differently — CPython 3.12's compensated
# ``sum()`` among them.


def _fold_rows():
    rng = random.Random(25)
    values = [0.1, 0.2, 0.3, 1.0, 3, 7, 1e16, -1e16, 1e-8, 2.5e15, -0.0]
    head = [("neg-zero", -0.0), ("mixed", -0.0), ("mixed", 3), ("single", 0.1)]
    body = [(rng.choice("abcd"), rng.choice(values)) for _ in range(400)]
    tail = [
        ("neg-zero", -0.0), ("mixed", 1e16), ("mixed", 1.0), ("mixed", -1e16),
        ("nulls", None), ("nulls", 1e16), ("nulls", None), ("nulls", 1.0),
        ("only-null", None),
    ]
    return head + body + tail


#: With and without the NULL-bearing groups: one NULL in a batch sends
#: that batch's folds down the per-value path.
FOLD_ROWS = {
    "nulls": _fold_rows(),
    "dense": [row for row in _fold_rows() if row[1] is not None],
}


class TestFloatAggregatesAreLeftFolds:
    def run(self, sql, data, batch_size):
        """*sql*'s aggregate over FOLD_ROWS[data] as given (ints stay
        ints) on both engines; the rows, signed zeros included."""
        database = Database("left-fold")
        database.create_table(
            "t",
            Schema((Column("g", ColumnType.STR), Column("x", ColumnType.FLOAT))),
        )
        agg = database.explain(sql)[0].plan
        child = MaterializedInput("t", agg.child.output_schema, FOLD_ROWS[data])
        plan = HashAggregate(
            child, agg.group_by, agg.items, agg.output_schema, agg.having
        )
        results = assert_plan_equivalent(database, plan, batch_size)
        rows = results["columnar"].rows
        assert repr(rows) == repr(results["row"].rows)
        return rows

    @pytest.mark.parametrize("batch_size", [1, 7, DEFAULT_BATCH_SIZE])
    @pytest.mark.parametrize("data", sorted(FOLD_ROWS))
    def test_grouped(self, data, batch_size):
        rows = self.run(
            "SELECT g, SUM(x), AVG(x), COUNT(x) FROM t GROUP BY g", data, batch_size
        )
        by_group = {row[0]: row[1:] for row in rows}
        assert math.copysign(1.0, by_group["neg-zero"][0]) == -1.0
        assert by_group["single"] == (0.1, 0.1, 1)
        if data == "nulls":
            assert by_group["only-null"] == (None, None, 0)

    @pytest.mark.parametrize("batch_size", [1, 7, DEFAULT_BATCH_SIZE])
    @pytest.mark.parametrize("data", sorted(FOLD_ROWS))
    def test_global(self, data, batch_size):
        self.run(
            "SELECT SUM(x), AVG(x), SUM(x * 3), AVG(x + 0.1) FROM t", data, batch_size
        )


class TestGroupingStringKeys:
    """A string key's groups, their first-occurrence order (NULL a group
    of its own) and the meters match the row engine across batches."""

    @pytest.mark.parametrize("aggregates", ["COUNT(*)", "COUNT(*), SUM(x), MIN(k)"])
    def test_groups_match_the_row_engine(self, aggregates):
        database = Database("string-keys")
        database.create_table(
            "t", Schema((Column("k", ColumnType.STR), Column("x", ColumnType.INT)))
        )
        agg = database.explain(f"SELECT k, {aggregates} FROM t GROUP BY k")[0].plan
        rows = [("b", 1), ("a", 2), ("a", 3), (None, 4), ("c", 5), ("b", 6), (None, 7)]
        child = MaterializedInput("t", agg.child.output_schema, rows)
        plan = HashAggregate(child, agg.group_by, agg.items, agg.output_schema, agg.having)
        result = assert_plan_equivalent(database, plan, batch_size=2)["columnar"]
        assert [row[0] for row in result.rows] == ["b", "a", None, "c"]


class TestExtremesPastNaN:
    """MIN / MAX compare every value with the running extreme, as the
    row engine does: a NaN never wins a comparison, so it stays only
    where it comes first.  Here it comes after 4 096 rows of 1.0, four
    full batches, and is followed by the true extremes.  SQL makes NaN
    from finite data: ``1e308 * 10 - 1e308 * 10`` is ``inf - inf``."""

    @pytest.mark.parametrize("group", ["", " GROUP BY g"], ids=["global", "grouped"])
    @pytest.mark.parametrize(
        "arg, nan_row",
        [("x", math.nan), ("x * 10 - x * 10 + x", 1e308)],
        ids=["stored", "computed"],
    )
    def test_nan_in_a_later_batch(self, arg, nan_row, group):
        database = Database("nan-extremes")
        database.create_table(
            "t", Schema((Column("g", ColumnType.INT), Column("x", ColumnType.FLOAT)))
        )
        database.load_rows(
            "t", [(0, 1.0)] * 4096 + [(0, nan_row), (0, 0.5), (0, 2.0)]
        )
        sql = f"SELECT MIN({arg}), MAX({arg}) FROM t{group}"
        results = assert_all_equivalent(database, sql, DEFAULT_BATCH_SIZE)
        assert results["columnar"].rows == [(0.5, 2.0)]


@pytest.fixture(scope="module")
def joined_db():
    database = Database("joined")
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
        [(10, 1, 100), (11, 1, 200), (12, 2, 150), (13, None, 50)],
    )
    return database


class TestOperatorSemantics:
    @pytest.mark.parametrize("batch_size", [1, 2, 7, DEFAULT_BATCH_SIZE])
    @pytest.mark.parametrize(
        "sql, present, absent",
        [
            (
                "SELECT d.name, e.empno FROM dept d "
                "LEFT JOIN emp e ON d.deptno = e.deptno",
                [("empty", None), ("sales", None)],
                [],
            ),
            (
                "SELECT d.name, e.empno FROM dept d "
                "LEFT JOIN emp e ON d.deptno = e.deptno AND e.salary > 120",
                [("eng", 11), ("ops", 12), ("sales", None)],
                [("eng", 10)],
            ),
            (
                # Non-equi ON clause: the nested-loop outer join.
                "SELECT d.name, e.empno FROM dept d "
                "LEFT JOIN emp e ON d.deptno < e.deptno",
                [("eng", 12), ("ops", None), ("empty", None)],
                [("eng", 10), ("eng", 13)],
            ),
            (
                # NULL join keys never match.
                "SELECT e.empno, d.name FROM emp e "
                "JOIN dept d ON e.deptno = d.deptno",
                [(10, "eng"), (12, "ops")],
                [(13, None), (13, "eng")],
            ),
            (
                "SELECT COUNT(*), SUM(e.salary), MIN(e.salary) FROM emp e "
                "WHERE e.salary > 99999",
                [(0, None, None)],
                [],
            ),
            ("SELECT COUNT(DISTINCT e.deptno) FROM emp e", [(2,)], []),
            (
                "SELECT d.name, COUNT(*) FROM dept d "
                "JOIN emp e ON d.deptno = e.deptno GROUP BY d.name "
                "HAVING COUNT(*) > 1",
                [("eng", 2)],
                [("ops", 1)],
            ),
        ],
        ids=[
            "outer-padding",
            "outer-residual",
            "outer-nested-loop",
            "null-join-keys",
            "empty-global-aggregate",
            "distinct-aggregate",
            "group-having",
        ],
    )
    def test_matches_row_engine(self, joined_db, sql, present, absent, batch_size):
        results = assert_all_equivalent(joined_db, sql, batch_size)
        rows = results["columnar"].rows
        assert all(row in rows for row in present)
        assert not any(row in rows for row in absent)


class TestEngineMachinery:
    def test_resolve_engine_validates(self):
        assert ENGINES == ("columnar", "row")
        assert resolve_engine("row") == "row"
        assert resolve_engine("columnar") == "columnar"
        assert resolve_engine(None) == "columnar"
        for retired in ("vector", "turbo"):
            with pytest.raises(SqlError, match=r"\('columnar', 'row'\)"):
                resolve_engine(retired)


# -- profiler and metrics ---------------------------------------------------


class TestObservability:
    SQL = (
        "SELECT f.v, d.name FROM fact f, dim d "
        "WHERE f.k = d.k AND f.v > 10.0"
    )

    def profiles(self, database, sql):
        plan = database.explain(sql)[0].plan
        captured = {}
        for engine in ENGINES:
            with profiling() as profiler:
                execute_plan(
                    plan,
                    database.storage,
                    engine=engine,
                    batch_size=8,
                )
            captured[engine] = profiler.capture()
        return plan, captured

    def test_profiled_row_counts_identical_across_engines(self, ops_db):
        plan, captured = self.profiles(ops_db, self.SQL)
        nodes = [plan]
        while nodes:
            node = nodes.pop()
            counts = {
                engine: captured[engine].stats_for(node).rows_out
                for engine in ENGINES
            }
            assert len(set(counts.values())) == 1, (
                node.describe(),
                counts,
            )
            nodes.extend(node.children())

    def test_columnar_selectivity_recorded(self, ops_db):
        plan, captured = self.profiles(ops_db, self.SQL)
        profile = captured["columnar"]
        selectivities = [
            stats.selectivity
            for _node, stats in profile.operators()
            if stats.selectivity is not None
        ]
        # The filtered scan keeps a strict subset of its physical slots.
        assert selectivities
        assert any(s < 1.0 for s in selectivities)
        assert all(0.0 <= s <= 1.0 for s in selectivities)
        rendered = render_analyzed_plan(plan, profile)
        assert "sel=" in rendered
        # The row-engine profile never fabricates a selectivity.
        assert all(
            stats.selectivity is None
            for _node, stats in captured["row"].operators()
        )

    def test_engine_metrics_emitted(self, ops_db):
        plan = ops_db.explain(self.SQL)[0].plan
        sink = obs.configure(log_level=None)
        try:
            execute_plan(
                plan,
                ops_db.storage,
                engine="columnar",
                batch_size=8,
            )
            assert (
                sink.metrics.counter_value(
                    "engine_batches_total", engine="columnar"
                )
                > 0
            )
            assert (
                sink.metrics.histogram(
                    "engine_rows_per_sec", engine="columnar"
                ).count
                >= 1
            )
        finally:
            obs.disable()
