"""What the SQL front end may cost, counted instead of timed.

Every fragment is parsed and bound once per candidate server, so these
pin the work of one call: Python-level calls per token in ``parse``,
nodes ``bind`` may not copy, and the renamed schema a catalog table
hands out without rebuilding — or hoarding — it.
"""

import gc
import sys
import types
from unittest import mock

from repro.sqlengine import Column, ColumnType, Database, Schema, bind, logical, parse
from repro.sqlengine.expressions import ColumnRef, Comparison, Literal
from repro.sqlengine.parser import tokenize
from repro.workload.queries import QT1

from .test_frontend_reference import CATALOG, reference_qualify


def python_calls(function, *args) -> int:
    """Python-level ``call`` events while *function* runs (C calls are
    other events and not counted)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        function(*args)
    finally:
        sys.setprofile(previous)
    return calls


def test_parse_makes_at_most_six_python_calls_per_token():
    # The parser it replaced made 19.7: a Token object and five _check
    # questions per token, each through three more frames.
    sql = QT1.instance(0).sql
    assert python_calls(parse, sql) <= 6 * len(tokenize(sql))


class TestBindRebuildsOnlyWhatItChanged:
    def test_qualified_statement_is_shared_not_copied(self):
        statement = parse(QT1.instance(0).sql)
        block = bind(statement, CATALOG)
        for bound, item in zip(block.items, statement.items):
            assert bound.expr is item.expr
        assert block.group_by[0] is statement.group_by[0]
        assert block.relations["o"].predicate is statement.where
        (edge,) = block.join_edges
        condition = statement.joins[0].condition
        assert (edge.left_column, edge.right_column) == (
            condition.left.name, condition.right.name
        )

    def test_bare_names_are_rewritten_as_the_reference_does(self):
        statement = parse(
            "SELECT priority, COUNT(*) AS n FROM orders o "
            "WHERE totalprice > 5 AND o.custkey < 9 GROUP BY priority"
        )
        block = bind(statement, CATALOG)
        with mock.patch.object(logical, "_qualify", reference_qualify):
            assert block == bind(statement, CATALOG)
        assert block.items[0].expr == ColumnRef("o.priority")
        assert block.items[1].expr is statement.items[1].expr
        rewritten, kept = block.relations["o"].predicate.children()
        assert rewritten == Comparison(">", ColumnRef("o.totalprice"), Literal(5))
        # a rebuilt parent keeps the children that did not change ...
        assert rewritten.right is statement.where.left.right
        # ... and a conjunct with nothing to rewrite is the statement's.
        assert kept is statement.where.right


class TestRenamedSchemaOfACatalogTable:
    @staticmethod
    def _database():
        database = Database("aliases")
        database.create_table(
            "t", Schema([Column("a", ColumnType.INT), Column("b", ColumnType.STR)])
        )
        return database

    def test_one_alias_builds_its_columns_once(self):
        catalog = self._database().catalog
        with mock.patch.object(
            Column, "with_table", autospec=True, side_effect=Column.with_table
        ) as with_table:
            first = bind(parse("SELECT x.a FROM t x WHERE x.b = 'k'"), catalog)
            second = bind(parse("SELECT x.b FROM t AS x"), catalog)
        assert with_table.call_count == 2  # a and b, for the first bind
        assert first.relations["x"].schema is second.relations["x"].schema

    def test_a_thousand_aliases_leave_nothing_behind(self):
        catalog = self._database().catalog

        def reachable() -> int:
            seen, stack = set(), [catalog]
            while stack:
                obj = stack.pop()
                if id(obj) in seen or isinstance(
                    obj, (type, types.ModuleType, types.FunctionType)
                ):
                    continue
                seen.add(id(obj))
                stack.extend(gc.get_referents(obj))
            return len(seen)

        def bind_under(aliases):
            for alias in aliases:
                bind(parse(f"SELECT {alias}.a FROM t {alias} WHERE b = 'k'"), catalog)

        bind_under(f"alias{i}" for i in range(10))
        after_ten = reachable()
        bind_under(f"alias{i}" for i in range(10, 1010))
        assert reachable() == after_ten
