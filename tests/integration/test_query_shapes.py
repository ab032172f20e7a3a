"""A text of a known shape decomposes as if parsed and bound afresh.

``decompose`` takes its statement and block from ``database.bind_shape``:
the first text of a shape is parsed and bound, and a later text whose
literals differ only in WHERE and JOIN ... ON (its *holes*) has the
template rebuilt along the paths to them.  Here every literal token of
QT1–QT5, the pinned grammar statements and a few texts with literals in
the other clauses is redrawn — kept, or given another value of its type
or of another type, out-of-range ordinals, overflowing floats and
over-long integers included — and the shape path must give what an
empty shape cache gives: the same statement, block and fragments, with
every literal's type, or the same exception.  Which texts hit is stated
here independently: the texts whose literals outside WHERE and ON are
unchanged, whose literal types are unchanged and whose holes convert.
"""

from __future__ import annotations

import dataclasses
from math import inf
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.fed import NicknameRegistry, decompose
from repro.sqlengine import database, parse
from repro.sqlengine.catalog import TableDef
from repro.sqlengine.expressions import Literal, walk
from repro.sqlengine.parser import fold_literals, literal_type, literal_value
from repro.workload import EXTENDED_QUERY_TYPES

from .test_golden_meters import PINNED

#: Literals in the select list, GROUP BY, HAVING, ORDER BY, LIMIT, IN and
#: LIKE, which ``bind`` reads by value, and in ON of an outer join.
OTHER_CLAUSES = [
    "SELECT o.priority, COUNT(*) AS n FROM orders o WHERE o.totalprice > 5000.5 "
    "GROUP BY 1 ORDER BY 2 DESC LIMIT 3",
    "SELECT c.nation + 1 AS k, COUNT(*) AS n FROM customer c "
    "WHERE c.custkey > 3 GROUP BY c.nation + 1",
    "SELECT c.segment, SUM(c.acctbal * 2) AS s FROM customer c "
    "WHERE c.segment LIKE 'AU%' AND c.nation IN (1, 2, 3) "
    "GROUP BY c.segment HAVING COUNT(*) > 1",
    "SELECT 7 AS seven, p.prodkey FROM product p "
    "WHERE p.price BETWEEN 10 AND 20.5 AND p.brand <> 'x''y'",
    "SELECT c.custkey FROM customer c LEFT JOIN orders o "
    "ON c.custkey = o.custkey AND o.totalprice > -5 WHERE c.acctbal < 1e3",
]

TEXTS = [t.instance(0).sql for t in EXTENDED_QUERY_TYPES] + PINNED + OTHER_CLAUSES

_KINDS = {
    int: st.one_of(
        st.integers(0, 10**6).map(str),
        st.sampled_from(["0", "1", "2", "3", "4", "99", "9" * 40, "9" * 4400]),
    ),
    float: st.one_of(
        st.floats(min_value=0, allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["1e999", "9" * 400 + ".5", "0.0", "5000.5"]),
    ),
    str: st.text(max_size=6).map(lambda s: Literal(s).sql()),
}


@st.composite
def _perturbed(draw):
    """(original text, a text of its shape with literals redrawn)."""
    sql = draw(st.one_of(st.sampled_from(TEXTS), st.sampled_from(OTHER_CLAUSES)))
    parts, end = [], 0
    for start, stop, token in _spans(sql):
        # Kept half the time, else mostly a value of the same type.
        kind, choice = literal_type(token), draw(st.integers(0, 9))
        if choice < 5:
            new = token
        elif choice < 9:
            new = draw(_KINDS[kind])
        else:
            new = draw(_KINDS[draw(st.sampled_from([k for k in _KINDS if k is not kind]))])
        parts += sql[end:start], new
        end = stop
    return sql, "".join(parts) + sql[end:]


def _spans(sql):
    """(start, end, text) of every literal token of *sql*."""
    folded, literals = fold_literals(sql)
    spans, at = [], 0
    for piece, (_, token) in zip(folded.split("?"), literals):
        at += len(piece)
        spans.append((at, at + len(token), token))
        at += len(token)
    return spans


def _holes(sql):
    """Token indices of the WHERE / ON literals of *sql*, by the parser."""
    statement = parse(sql)
    conditions = [statement.where] + [j.condition for j in statement.joins]
    return {
        node.token
        for condition in conditions
        if condition is not None
        for node in walk(condition)
        if isinstance(node, Literal) and node.token is not None
    }


def _expect_hit(sql, new):
    old_literals, new_literals = fold_literals(sql)[1], fold_literals(new)[1]
    holes = _holes(sql)
    for (index, old), (_, token) in zip(old_literals, new_literals):
        if literal_type(old) is not literal_type(token):
            return False
        if index not in holes:
            if old != token:
                return False
            continue
        try:
            if literal_value(token) == inf:
                return False
        except ValueError:
            return False
    return True


def _typed(value):
    """*value* as nested tuples in which every literal carries its type."""
    if isinstance(value, Literal):
        return ("Literal", type(value.value), value.value, value.token)
    if isinstance(value, TableDef):
        return value
    if dataclasses.is_dataclass(value):
        return (type(value),) + tuple(
            _typed(getattr(value, f.name)) for f in dataclasses.fields(value) if f.compare
        )
    if isinstance(value, (tuple, list)):
        return (type(value),) + tuple(_typed(v) for v in value)
    if isinstance(value, dict):
        return tuple((k, _typed(v)) for k, v in value.items())
    return (type(value), value)


def _outcome(sql, registry):
    try:
        decomposed = decompose(sql, registry)
    except Exception as exc:  # compared by type and text
        return ("raised", type(exc), str(exc))
    return (
        _typed(decomposed.statement),
        _typed(decomposed.block),
        _typed(decomposed.fragments),
        _typed(decomposed.cross_edges),
    )


@pytest.fixture(scope="module")
def registry(sample_databases):
    """Every table on all three servers."""
    registry = NicknameRegistry()
    for index, (server, db) in enumerate(sorted(sample_databases.items())):
        for name in db.catalog.table_names():
            if index == 0:
                registry.register(name, server, table_def=db.catalog.lookup(name))
            else:
                registry.register(name, server)
    return registry


def _check(registry, sql, new):
    """*new* decomposed after *sql* equals *new* decomposed from an empty
    shape cache, and is parsed exactly when it is no hit."""
    database._shapes.clear()
    fresh = _outcome(new, registry)
    database._shapes.clear()
    decompose(sql, registry)
    with mock.patch.object(database, "parse", wraps=database.parse) as parsed:
        shaped = _outcome(new, registry)
    assert shaped == fresh, new
    assert (parsed.call_count == 0) == _expect_hit(sql, new), new


@given(_perturbed())
@settings(deadline=None)
def test_a_text_of_a_known_shape_decomposes_as_if_parsed_afresh(registry, texts):
    _check(registry, *texts)


#: (template, old, new): one literal of a template changed, by hand.
CHANGED = [
    (OTHER_CLAUSES[0], "GROUP BY 1", "GROUP BY 9"),  # out of range: raises
    (OTHER_CLAUSES[0], "ORDER BY 2", "ORDER BY 1"),
    (OTHER_CLAUSES[0], "LIMIT 3", "LIMIT 4"),
    (OTHER_CLAUSES[0], "5000.5", "1e999"),  # overflows: raises
    (OTHER_CLAUSES[0], "5000.5", "6000.25"),  # a hole: hits
    (OTHER_CLAUSES[0], "5000.5", "6000"),  # another type
    (OTHER_CLAUSES[1], "GROUP BY c.nation + 1", "GROUP BY c.nation + 2"),  # raises
    (OTHER_CLAUSES[1], "> 3", "> 3.0"),  # another type
    (OTHER_CLAUSES[1], "> 3", "> " + "9" * 4400),  # too many digits: raises
    (OTHER_CLAUSES[1], "> 3", "> 4"),  # a hole: hits
    (OTHER_CLAUSES[2], "'AU%'", "'BU%'"),
    (OTHER_CLAUSES[2], "(1, 2, 3)", "(1, 2, 4)"),
    (OTHER_CLAUSES[2], "> 1", "> 2"),
    (OTHER_CLAUSES[2], "* 2", "* 3"),
    (OTHER_CLAUSES[3], "SELECT 7", "SELECT 8"),
    (OTHER_CLAUSES[3], "'x''y'", "'z'"),  # a hole: hits
    (OTHER_CLAUSES[3], "'x''y'", "5"),  # a string column against a number: raises
    (OTHER_CLAUSES[3], "AND 20.5", "AND 21.5"),  # a hole: hits
    (OTHER_CLAUSES[4], "-5", "-7"),  # a hole in a LEFT JOIN's ON: hits
]


@pytest.mark.parametrize("sql, old, new", CHANGED)
def test_one_changed_literal_decomposes_as_if_parsed_afresh(registry, sql, old, new):
    assert sql.count(old) == 1
    _check(registry, sql, sql.replace(old, new))


@pytest.mark.parametrize("sql", TEXTS)
def test_every_text_hits_its_own_shape_with_new_objects(registry, sql):
    database._shapes.clear()
    first = decompose(sql, registry)
    with mock.patch.object(database, "parse", wraps=database.parse) as parsed:
        again = decompose(sql, registry)
    assert parsed.call_count == 0
    assert again.statement is not first.statement and again.block is not first.block
    assert _typed(again.statement) == _typed(first.statement)
    assert _typed(again.block) == _typed(first.block)


def test_the_shape_cache_is_bounded(registry, monkeypatch):
    monkeypatch.setattr(database, "SHAPE_CACHE_SIZE", 3)
    database._shapes.clear()
    for sql in PINNED[:10]:
        decompose(sql, registry)
    assert len(database._shapes) == 3
