"""Generated spine code: what its source may hold, and how often it is
compiled.

A generated function's parameters carry every value of the plan, so its
source holds only names, operators, small integers (column positions,
0 and -1), True, False and None: no string and no float, whatever the
plan's literals and aliases spell.  Such plans still answer as SQLite
does.
One spine shape compiles one function, whatever its literals: the
workload's 40 QT1–QT4 texts and QT5 compile one per shape, and their
scan predicates (``col > lit``, the price column at position 2 in every
table) one selection kernel, whose source is written once: a later
kernel of its shape only gathers its parameters.  Each source compiles
under its own file name, so a profiler keeps one entry per function.
"""

from __future__ import annotations

import ast
import cProfile
import pstats

import pytest

from repro.chaos.sqlite_answers import SqliteAnswers
from repro.sqlengine import (
    Arithmetic,
    Column,
    ColumnBatch,
    ColumnRef,
    ColumnType,
    Comparison,
    Database,
    InList,
    Like,
    Literal,
    Schema,
    database as database_module,
    execute_plan,
    populate,
    rows_close_unordered,
    spine,
)
from repro.workload import TEST_SCALE, table_specs
from repro.workload.queries import EXTENDED_QUERY_TYPES, QUERY_TYPES

#: Literals that would break, or change, Python source spliced around them.
AWKWARD = [
    "it's",
    'say "hi"',
    "back\\slash",
    "two\nlines",
    "# not a comment",
    "{braces} {0}",
    "'); import os; ('",
]


def _sql_string(value):
    return "'" + value.replace("'", "''") + "'"


@pytest.fixture()
def generated(monkeypatch):
    """Every source compiled from here on, with fresh caches (the shared
    planned entry too, or a text planned before would bring its nodes)."""
    monkeypatch.setattr(spine, "_FUNCTIONS", {})
    monkeypatch.setattr(spine, "_SHAPES", {})
    monkeypatch.setattr(spine, "_KERNELS", {})
    monkeypatch.setattr(database_module, "_last_planned", None)
    sources = []

    def counting_compile(source, filename, mode):
        sources.append(source)
        return compile(source, filename, mode)

    monkeypatch.setattr(spine, "compile", counting_compile, raising=False)
    return sources


@pytest.fixture()
def awkward_db():
    database = Database(name="awkward")
    database.create_table(
        "tags",
        Schema(
            (
                Column("id", ColumnType.INT),
                Column("tag", ColumnType.STR),
                Column("val", ColumnType.FLOAT),
            )
        ),
    )
    database.create_table(
        "labels",
        Schema((Column("id", ColumnType.INT), Column("label", ColumnType.STR))),
    )
    database.load_rows(
        "tags",
        [(i, AWKWARD[i % len(AWKWARD)], i * 0.5) for i in range(40)],
    )
    database.load_rows(
        "labels",
        [(i % 30, AWKWARD[(i * 3) % len(AWKWARD)]) for i in range(50)],
    )
    database.analyze()
    return database


def _statements():
    first, second, third = (_sql_string(v) for v in AWKWARD[:3])
    rest = ", ".join(_sql_string(v) for v in AWKWARD[3:])
    return [
        # Inline residual comparing with a literal, outer join.
        f"SELECT t.tag, COUNT(*) AS P, MIN(u.label) AS GK FROM tags t "
        f"LEFT JOIN labels u ON t.id = u.id AND u.label = {first} GROUP BY t.tag",
        # A residual the row evaluator runs (OR over both sides).
        f"SELECT t.tag, COUNT(u.label) AS spine, SUM(t.val) AS repeat FROM tags t "
        f"JOIN labels u ON t.id = u.id AND (t.tag = {second} OR u.label <> {third}) "
        f"GROUP BY t.tag",
        # IN and LIKE over awkward strings, no GROUP BY, HAVING.
        f"SELECT COUNT(*) AS c0, MAX(u.label) AS t1 FROM tags t LEFT JOIN labels u "
        f"ON t.id = u.id AND u.label IN ({rest}) HAVING COUNT(*) > 1",
        f"SELECT u.label, COUNT(*) AS g FROM labels u JOIN tags t ON u.id = t.id "
        f"AND t.tag LIKE '%''%' GROUP BY u.label",
        # The batch sink: a join under a projection.
        f"SELECT t.tag, u.label FROM tags t LEFT JOIN labels u ON t.id = u.id "
        f"AND u.label = {_sql_string(AWKWARD[5])}",
    ]


def _constants(source):
    return {
        type(node.value)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
    }


@pytest.mark.parametrize("sql", _statements())
def test_awkward_literals_compile_and_match_sqlite(awkward_db, generated, sql):
    plan = awkward_db.explain(sql)[0].plan
    rows = execute_plan(plan, awkward_db.storage).rows
    assert rows_close_unordered(rows, SqliteAnswers([awkward_db]).answer(sql))
    assert generated, plan.explain()
    for source in generated:
        # Names, operators, ints, True, False and None: no plan value.
        assert _constants(source) <= {int, bool, type(None)}, source
        for value in AWKWARD:
            assert value not in source and repr(value) not in source


def test_one_function_per_spine_shape(generated):
    # A fresh database: cached plan nodes keep their spines.
    database = Database(name="shapes")
    populate(database, table_specs(TEST_SCALE), seed=7)
    texts = [t.instance(i).sql for t in QUERY_TYPES for i in range(10)]
    texts.append(EXTENDED_QUERY_TYPES[-1].instance(0).sql)
    assert len(set(texts)) == 41
    for sql in texts:
        execute_plan(database.explain(sql)[0].plan, database.storage)
    # QT1 and QT3 share a shape; QT2, QT4 and QT5 have one each.
    assert len(spine._SHAPES) == 4
    spines = [s for s in generated if s.startswith("def spine(")]
    kernels = [s for s in generated if s.startswith("def kernel(")]
    assert len(generated) == len(set(generated)) == len(spines) + len(kernels)
    assert len(spines) <= len(spine._SHAPES)
    assert len(kernels) == 1


def test_an_equal_kernel_shape_writes_no_source(monkeypatch):
    # Literals, LIKE matchers and IN sets are parameters: a second kernel
    # of one shape gathers them and reuses the function.
    monkeypatch.setattr(spine, "_KERNELS", {})
    written = []
    write = spine._write_kernel
    monkeypatch.setattr(
        spine, "_write_kernel", lambda *args: written.append(args[0]) or write(*args)
    )
    schema = Schema((Column("n", ColumnType.INT, "t"), Column("s", ColumnType.STR, "t")))
    n, s = ColumnRef("t.n"), ColumnRef("t.s")
    batch = ColumnBatch.from_rows([(1, "ab"), (5, "b"), (None, "ba"), (9, None)], 2)
    shapes = [
        [Comparison(">", n, Literal(v)) for v in (0, 4, 8)],
        [Like(s, p) for p in ("a%", "b%")],
        [InList(n, vs) for vs in ((1, 9), (5,))],
        [Arithmetic("*", n, Literal(v)) for v in (2, 3)],
    ]
    got = [
        [spine.selection_kernel(e, schema)(batch) for e in exprs]
        for exprs in shapes[:3]
    ] + [[spine.value_kernel(e, schema)(batch) for e in shapes[3]]]
    assert got == [
        [[0, 1, 3], [1, 3], [3]],
        [[0], [1, 2]],
        [[0, 3], [1]],
        [[2, 10, None, 18], [3, 15, None, 27]],
    ]
    assert written == [exprs[0] for exprs in shapes]
    # A NULL literal is another shape: NULL-ness is written into the test.
    assert spine.selection_kernel(Comparison(">", n, Literal(None)), schema)(batch) == []
    assert len(written) == 5


def test_each_generated_source_profiles_as_its_own_entry():
    # cProfile keys a function by (file, line, name): two generated
    # functions must not fold into one entry.
    schema = Schema((Column("n", ColumnType.INT, "t"),))
    batch = ColumnBatch.from_rows([(i,) for i in range(50)], 1)
    first = spine.selection_kernel(Comparison(">", ColumnRef("t.n"), Literal(3)), schema)
    second = spine.value_kernel(Arithmetic("+", ColumnRef("t.n"), Literal(1)), schema)
    profiler = cProfile.Profile()
    profiler.runcall(lambda: [first(batch), second(batch), first(batch)])
    entries = {
        key: stats[0]
        for key, stats in pstats.Stats(profiler).stats.items()
        if key[0].startswith(spine.FILENAME) and key[2] == "kernel"
    }
    assert sorted(entries.values()) == [1, 2]
