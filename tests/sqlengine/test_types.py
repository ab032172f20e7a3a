"""Unit tests for value and schema types."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sqlengine import (
    Column,
    ColumnType,
    Schema,
    SchemaError,
    TypeMismatchError,
    rows_equal_unordered,
)


class TestColumnType:
    def test_int_accepts_int_only(self):
        assert ColumnType.INT.accepts(5)
        assert not ColumnType.INT.accepts(5.0)
        assert not ColumnType.INT.accepts(True)
        assert not ColumnType.INT.accepts("5")

    def test_float_widens_int(self):
        assert ColumnType.FLOAT.accepts(5)
        assert ColumnType.FLOAT.coerce(5) == 5.0
        assert isinstance(ColumnType.FLOAT.coerce(5), float)

    def test_bool_is_not_int(self):
        assert ColumnType.BOOL.accepts(True)
        assert not ColumnType.BOOL.accepts(1)
        assert not ColumnType.FLOAT.accepts(True)

    def test_null_is_universal(self):
        for ctype in ColumnType:
            assert ctype.accepts(None)
            assert ctype.coerce(None) is None

    def test_coerce_rejects_mismatch(self):
        with pytest.raises(TypeMismatchError):
            ColumnType.INT.coerce("x")
        with pytest.raises(TypeMismatchError):
            ColumnType.STR.coerce(1)


def _schema():
    return Schema(
        (
            Column("id", ColumnType.INT, "t"),
            Column("name", ColumnType.STR, "t"),
            Column("id", ColumnType.INT, "u"),
        )
    )


class TestSchema:
    def test_qualified_resolution(self):
        schema = _schema()
        assert schema.index_of("t.id") == 0
        assert schema.index_of("u.id") == 2

    def test_bare_resolution_unique(self):
        assert _schema().index_of("name") == 1

    def test_bare_resolution_ambiguous(self):
        with pytest.raises(SchemaError, match="ambiguous"):
            _schema().index_of("id")

    def test_unknown_column(self):
        with pytest.raises(SchemaError, match="unknown"):
            _schema().index_of("missing")
        with pytest.raises(SchemaError):
            _schema().index_of("x.name")

    def test_stale_qualifier_falls_back(self):
        # A qualified name whose table prefix is gone resolves if the
        # bare trailing component is unique.
        schema = Schema((Column("name", ColumnType.STR),))
        assert schema.index_of("t.name") == 0

    def test_concat_and_rename(self):
        left = Schema((Column("a", ColumnType.INT, "l"),))
        right = Schema((Column("b", ColumnType.INT, "r"),))
        joined = left.concat(right)
        assert [c.qualified_name for c in joined] == ["l.a", "r.b"]
        renamed = joined.rename_table("x")
        assert [c.qualified_name for c in renamed] == ["x.a", "x.b"]

    def test_validate_row(self):
        schema = Schema(
            (Column("a", ColumnType.INT), Column("b", ColumnType.FLOAT))
        )
        assert schema.validate_row([1, 2]) == (1, 2.0)
        with pytest.raises(SchemaError):
            schema.validate_row([1])
        with pytest.raises(TypeMismatchError):
            schema.validate_row(["x", 2.0])

    def test_row_width_accounts_for_strings(self):
        ints = Schema((Column("a", ColumnType.INT),))
        strs = Schema((Column("a", ColumnType.STR),))
        assert strs.row_width_bytes() > ints.row_width_bytes()

    def test_row_width_is_the_same_however_the_schema_was_built(self):
        # 8 + (24 + 16) + 8 + (24 + 16), computed once per schema.
        for schema in (Schema(_T + _U), Schema(_T).concat(Schema(_U))):
            assert schema.row_width_bytes() == 96.0
            assert schema.row_width_bytes() == 96.0
        assert Schema(_T + _U).rename_table("r").row_width_bytes() == 96.0

    def test_has_column(self):
        schema = _schema()
        assert schema.has_column("name")
        assert not schema.has_column("id")  # ambiguous -> False
        assert schema.has_column("t.id")

    def test_equality(self):
        assert _schema() == _schema()
        assert _schema() != Schema(())


# -- name indexes are filled by the first resolution -------------------------

_T = (Column("id", ColumnType.INT, "t"), Column("name", ColumnType.STR, "t"))
_U = (Column("id", ColumnType.INT, "u"), Column("tag", ColumnType.STR))

#: Every kind of ``index_of`` outcome over the columns t.id, t.name, u.id, tag.
_MIXED = {
    "t.id": 0,
    "u.id": 2,
    "name": 1,
    "tag": 3,
    "x.tag": 3,  # stale qualifier on an unqualified column
    "x.name": "unknown column 'x.name'",  # ... but not on a qualified one
    "id": "ambiguous column 'id' (present in t, u)",
    "missing": "unknown column 'missing'",
}
#: ... and over r.id, r.name, r.id, r.tag (the first duplicate wins).
_RENAMED = {
    "r.id": 0,
    "r.tag": 3,
    "name": 1,
    "t.id": "unknown column 't.id'",
    "x.tag": "unknown column 'x.tag'",
    "id": "ambiguous column 'id' (present in r)",
    "missing": "unknown column 'missing'",
}


def _outcomes(schema, names):
    outcomes = {}
    for name in names:
        try:
            outcomes[name] = schema.index_of(name)
        except SchemaError as exc:
            outcomes[name] = str(exc)
    return outcomes


@pytest.mark.parametrize("derived_first", [False, True])
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: Schema(_T + _U), _MIXED),
        (lambda: Schema(_T).concat(Schema(_U)), _MIXED),
        (lambda: Schema(_T + _U).rename_table("r"), _RENAMED),
    ],
    ids=["constructor", "concat", "rename_table"],
)
def test_resolution_does_not_depend_on_when_it_first_happens(
    build, expected, derived_first
):
    schema = build()
    derived = [schema.concat(Schema(_U)), schema.rename_table("d")]
    names = list(expected) + ["d.id", "d.tag"]
    if derived_first:
        for other in derived:
            _outcomes(other, names)
    assert _outcomes(schema, expected) == expected
    assert _outcomes(schema, expected) == expected  # from the filled index
    for other in derived:
        # A schema derived from an indexed (or not yet indexed) one
        # resolves like one built from the same columns from scratch.
        assert _outcomes(other, names) == _outcomes(Schema(other.columns), names)
    assert _outcomes(schema, expected) == expected


def test_rows_equal_unordered():
    assert rows_equal_unordered([(1, "a"), (2, "b")], [(2, "b"), (1, "a")])
    assert not rows_equal_unordered([(1,)], [(1,), (1,)])
    # None values sort without TypeError
    assert rows_equal_unordered([(None,), (1,)], [(1,), (None,)])


# -- a bulk load is checked a column at a time -------------------------------


class _Int(int):
    """An ``int`` subclass: INT columns accept it, the column check does not."""


#: Each column type's own values; a batch of these passes the column check.
_VALUES = {
    ColumnType.INT: st.integers(-5, 5),
    ColumnType.FLOAT: st.floats(allow_nan=False, width=32),
    ColumnType.STR: st.text(max_size=3),
    ColumnType.BOOL: st.booleans(),
}
#: What a defect puts in a row: a value of any kind but NULL.
_ANY_VALUE = st.one_of(*_VALUES.values(), st.integers(-5, 5).map(_Int))


@st.composite
def _batches(draw):
    """A schema and rows of its own values, with up to two rows then
    given another value, another arity or the form of a list."""
    ctypes = draw(st.lists(st.sampled_from(list(ColumnType)), max_size=4))
    own = st.tuples(*(st.one_of(st.none(), _VALUES[c]) for c in ctypes))
    rows = draw(st.lists(own, max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        at = draw(st.integers(0, len(rows) - 1))
        row = list(rows[at])
        defect = draw(st.sampled_from(("value", "value", "arity", "list")))
        if defect == "value" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_ANY_VALUE)
        elif defect == "arity":
            row = draw(st.lists(_ANY_VALUE, max_size=5))
        rows[at] = row if defect == "list" else tuple(row)
    return Schema(tuple(Column(f"c{i}", c) for i, c in enumerate(ctypes))), rows


def _outcome(check):
    """(value, type) of every stored value, or (error type, message)."""
    try:
        rows = check()
    except Exception as exc:
        return type(exc), str(exc)
    return [
        (type(row), [(value, type(value)) for value in row]) for row in rows
    ]


class TestValidateRows:
    """``validate_rows`` is ``validate_row`` per row, but checked per column.

    Mutants these catch: the type-set ``<=`` turned into ``==`` (a
    NULL-free column takes the per-row path: the ``is`` cases), a dropped
    arity or plain-tuple check, and ``float`` or ``bool`` stored unchanged
    in an INT column or an ``int`` in a FLOAT one (the property at most
    seeds, the row-by-row cases always).
    """

    @settings(max_examples=300, deadline=None)
    @given(_batches())
    def test_equals_validating_each_row(self, batch):
        schema, rows = batch
        expected = _outcome(lambda: [schema.validate_row(row) for row in rows])
        assert _outcome(lambda: schema.validate_rows(list(rows))) == expected

    def test_rows_that_need_nothing_are_returned_as_they_are(self):
        schema = Schema(
            (
                Column("a", ColumnType.INT),
                Column("b", ColumnType.FLOAT),
                Column("c", ColumnType.STR),
                Column("d", ColumnType.BOOL),
            )
        )
        rows = [(1, 2.5, "x", True), (3, 0.0, "", False)]
        for batch in (rows, rows + [(None, None, None, None)]):
            checked = schema.validate_rows(batch)
            assert all(stored is row for stored, row in zip(checked, batch))
        assert schema.validate_rows([]) == []

    @pytest.mark.parametrize(
        "rows, error",
        [
            ([(1, 2.0), (3, 4)], None),  # an int widened into the FLOAT column
            ([(1, 2.0), [3, 4.0]], None),  # a list row stored as a tuple
            ([(1, 2.0), (_Int(3), 4.0)], None),  # the subclass kept, as before
            ([(1, 2.0), (3.0, 4.0)], TypeMismatchError),
            ([(1, 2.0), (True, 4.0)], TypeMismatchError),
            ([(1, 2.0), (3, 4.0, 5)], SchemaError),
            ([(1, 2.0), (3,)], SchemaError),
            ([("x", 2.0), (3,)], TypeMismatchError),  # the first bad row raises
        ],
    )
    def test_anything_else_goes_row_by_row(self, rows, error):
        schema = Schema(
            (Column("a", ColumnType.INT), Column("b", ColumnType.FLOAT))
        )
        if error is not None:
            with pytest.raises(error):
                schema.validate_rows(rows)
            return
        checked = schema.validate_rows(rows)
        assert _outcome(lambda: checked) == _outcome(
            lambda: [schema.validate_row(row) for row in rows]
        )
        assert all(type(row) is tuple for row in checked)
