"""Generated expression kernels against the row evaluator.

``spine.selection_kernel`` and ``spine.value_kernel`` write an
expression into one list comprehension per batch.  Over drawn trees —
comparisons, arithmetic with ``/`` and ``%`` by zero, ``IS [NOT] NULL``,
LIKE / IN, and the shapes the loop does not inline (AND / OR / NOT,
functions) — and drawn columns with and without NULLs (NaN, ``-0.0``,
bools, ints and floats mixed, strings that format: ``"%s" % NULL``), the
rows run in batches of 1, 2 and all of them, on plain value lists and
on a stored table's slices and gathers, with and without a narrowed
selection.  Per batch, a value kernel must give the row evaluator's
values (same type and ``repr``: ``-0.0`` is not ``0.0``) and a
selection kernel the rows where it gives exactly True; where the row
evaluator raises on a selected row, both kernels raise its first error,
of the same type and with the same message.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.sqlengine import (
    And,
    Arithmetic,
    Column,
    ColumnBatch,
    ColumnRef,
    ColumnType,
    Comparison,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    Schema,
)
from repro.sqlengine.columnar import TableColumns, TakeColumn
from repro.sqlengine.expressions import ARITHMETIC_OPS, COMPARISON_OPS, SCALAR_FUNCTIONS
from repro.sqlengine.spine import selection_kernel, value_kernel

SCHEMA = Schema(
    (
        Column("a", ColumnType.INT, "t"),
        Column("b", ColumnType.FLOAT, "t"),
        Column("s", ColumnType.STR, "t"),
        Column("f", ColumnType.BOOL, "t"),
    )
)

NAN = float("nan")
NUMBERS = st.sampled_from((0, 1, -2, 0.0, -0.0, 2.5, NAN, True, False))
STRINGS = st.sampled_from(("", "Hi", "%s", "a_%", "H%"))
KINDS = {
    "number": NUMBERS,
    "int": st.integers(-3, 3),
    "string": STRINGS,
    "mixed": st.one_of(NUMBERS, STRINGS),
}
SCALARS = st.one_of(st.none(), NUMBERS, STRINGS)
LEAVES = st.one_of(
    st.sampled_from([ColumnRef(c.name) for c in SCHEMA.columns]),
    st.builds(Literal, SCALARS),
)


def _compound(children):
    return st.one_of(
        st.builds(Comparison, st.sampled_from(COMPARISON_OPS), children, children),
        st.builds(Arithmetic, st.sampled_from(ARITHMETIC_OPS), children, children),
        st.builds(IsNull, children, st.booleans()),
        st.builds(Like, children, st.sampled_from(("H%", "%", "_i", "a\\_%")), st.booleans()),
        st.builds(InList, children, st.lists(SCALARS, max_size=3).map(tuple), st.booleans()),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Not, children),
        st.builds(FuncCall, st.sampled_from(SCALAR_FUNCTIONS), children),
    )


EXPRESSIONS = st.recursive(LEAVES, _compound, max_leaves=5)


@st.composite
def drawn_rows(draw):
    """1–6 rows; each column holds one kind of value, with or without NULLs."""
    n = draw(st.integers(1, 6))
    columns = []
    for _ in SCHEMA.columns:
        values = KINDS[draw(st.sampled_from(sorted(KINDS)))]
        if draw(st.booleans()):
            values = st.one_of(st.none(), values)
        columns.append(draw(st.lists(values, min_size=n, max_size=n)))
    return list(zip(*columns))


def outcome(run):
    """What *run* returns (values by type and ``repr``), or the type and
    message of what it raises."""
    try:
        values = run()
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(v), repr(v)) for v in values]


def batches(rows, size, layout):
    """*rows* in batches of *size*: (batch, its rows by physical index)."""
    for start in range(0, len(rows), size):
        chunk = rows[start : start + size]
        if layout == "values":
            yield ColumnBatch.from_rows(chunk, len(SCHEMA)), chunk
        elif layout == "slice":
            yield TableColumns(rows, SCHEMA).batch(start, start + len(chunk)), chunk
        else:  # a gather, backwards, as a hash join's build-side ids may be
            ids = list(range(start + len(chunk) - 1, start - 1, -1))
            cols = tuple(TakeColumn(col, ids) for col in TableColumns(rows, SCHEMA).cols)
            yield ColumnBatch(cols, len(ids)), [rows[i] for i in ids]


@settings(deadline=None)
@given(
    expr=EXPRESSIONS,
    rows=drawn_rows(),
    size=st.sampled_from((1, 2, 6)),
    layout=st.sampled_from(("values", "slice", "gather")),
    narrow=st.booleans(),
)
# ``"%s" % NULL`` formats where SQL says NULL; ``%`` by ``-0.0`` raises.
@example(
    expr=Arithmetic("%", ColumnRef("s"), ColumnRef("a")),
    rows=[("%s", 0.0, "%s", True), (None, 0.0, "%s", False)],
    size=2, layout="values", narrow=False,
)
@example(
    expr=Comparison(">", Arithmetic("%", ColumnRef("b"), Literal(-0.0)), ColumnRef("a")),
    rows=[(1, 2.5, "", True)],
    size=1, layout="slice", narrow=False,
)
# A NULL left operand must not skip the right one's error.
@example(
    expr=Comparison("<", ColumnRef("a"), Arithmetic("+", ColumnRef("b"), ColumnRef("s"))),
    rows=[(None, 1.0, "Hi", True)],
    size=1, layout="values", narrow=False,
)
# ``!=`` over NULL, and NaN never equal to itself.
@example(
    expr=Comparison("!=", ColumnRef("b"), ColumnRef("b")),
    rows=[(0, None, "", True), (0, NAN, "", True)],
    size=2, layout="gather", narrow=True,
)
def test_generated_kernels_agree_with_row_evaluator(expr, rows, size, layout, narrow):
    evaluate = expr.compile(SCHEMA)
    values = value_kernel(expr, SCHEMA)
    select = selection_kernel(expr, SCHEMA)
    for batch, physical in batches(rows, size, layout):
        positions = list(range(0, len(physical), 2)) if narrow else range(len(physical))
        view = batch.with_sel(positions) if narrow else batch
        expected = outcome(lambda: [evaluate(physical[i]) for i in positions])
        assert outcome(lambda: values(view)) == expected
        if isinstance(expected, list):
            expected = [
                (int, repr(i)) for i, (kind, text) in zip(positions, expected)
                if kind is bool and text == "True"
            ]
        assert outcome(lambda: select(view)) == expected
