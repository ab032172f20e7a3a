"""Well-formed but wrong statements fail as SQL errors, everywhere, with
the books settled.

Each statement below parses; each is wrong against the sample schema:
an unknown or ambiguous column, a type mismatch, an aggregate where no
group exists yet, a column outside the groups or a sort key outside the
select list (both used to fail only when run), a select-list position
that is not there, an unknown nickname.  ``bind``, ``Database.explain``
(asked again, at the same and at an equal server, after the shared entry
has seen the text) and ``InformationIntegrator.submit`` must raise one
:class:`BindError` — nothing else — with one message; after ``submit``
the plan cache holds nothing and no patroller record is left open.  The
concurrent runtime reports the same query as failed.

A grammar of well-formed statements over the sample schema, right or
wrong in any clause, holds every statement it makes to the same books:
``bind``, ``Database.explain`` and ``Database.run`` succeed or raise a
:class:`SqlError`, the two engines alike, and both ``submit`` and the
concurrent runtime settle its record: completed or failed, no handle
pending and no scheduler process left live.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.fed import ConcurrentRuntime
from repro.fed.patroller import QueryStatus
from repro.harness import build_federation
from repro.sqlengine import ENGINES, BindError, SqlError, bind, execute_plan, parse
from repro.workload import TEST_SCALE, table_specs

WRONG = {
    "unknown column": "SELECT o.nosuch FROM orders o",
    "unknown bare column": "SELECT COUNT(*) AS n FROM orders o WHERE nosuch > 1",
    "ambiguous column": (
        "SELECT custkey FROM orders o, customer c WHERE o.custkey = c.custkey"
    ),
    "string compared with number": (
        "SELECT c.custkey FROM customer c WHERE c.segment > 5"
    ),
    "string joined with number": (
        "SELECT o.orderkey FROM orders o, customer c WHERE o.custkey = c.segment"
    ),
    "arithmetic on a string": "SELECT c.segment * 2 AS x FROM customer c",
    "string in a numeric list": (
        "SELECT c.custkey FROM customer c WHERE c.nation IN ('a', 'b')"
    ),
    "LIKE over a number": "SELECT c.custkey FROM customer c WHERE c.nation LIKE '1%'",
    "UPPER of a number": "SELECT UPPER(c.nation) AS u FROM customer c",
    "AVG of a string": "SELECT AVG(c.segment) AS a FROM customer c",
    "number as a condition": "SELECT c.custkey FROM customer c WHERE c.nation",
    "aggregate in WHERE": (
        "SELECT COUNT(*) AS n FROM orders o WHERE SUM(o.totalprice) > 5"
    ),
    "aggregate in ON": (
        "SELECT COUNT(*) AS n FROM orders o JOIN customer c "
        "ON o.custkey = c.custkey AND MAX(c.acctbal) > 1"
    ),
    "aggregate in GROUP BY": (
        "SELECT COUNT(*) AS n FROM orders o GROUP BY SUM(o.priority)"
    ),
    "ungrouped column in HAVING": (
        "SELECT s.suppkey FROM supplier s GROUP BY s.suppkey HAVING suppkey = nation"
    ),
    "ungrouped column beside an aggregate": (
        "SELECT c.nation + COUNT(*) AS n FROM customer c GROUP BY c.segment"
    ),
    "ORDER BY an unselected column": "SELECT c.custkey FROM customer c ORDER BY c.nation",
    "ORDER BY an aggregate": (
        "SELECT c.nation, COUNT(*) AS n FROM customer c GROUP BY c.nation ORDER BY COUNT(*)"
    ),
    "ORDER BY a position past the select list": (
        "SELECT c.custkey FROM customer c ORDER BY 2"
    ),
    "ORDER BY position 0": "SELECT c.custkey, c.nation FROM customer c ORDER BY 1, 0",
    "GROUP BY a position past the select list": (
        "SELECT c.nation, COUNT(*) AS n FROM customer c GROUP BY 3"
    ),
    "GROUP BY the position of an aggregate": (
        "SELECT c.nation, COUNT(*) AS n FROM customer c GROUP BY 2"
    ),
    "unknown nickname": "SELECT x.a FROM nosuch x",
    "unknown nickname joined": (
        "SELECT o.orderkey FROM orders o, nosuch x WHERE o.orderkey = x.a"
    ),
}


@pytest.fixture()
def deployment(sample_databases):
    return build_federation(scale=TEST_SCALE, prebuilt_databases=sample_databases)


def _error(call, *args) -> SqlError:
    with pytest.raises(SqlError) as caught:
        call(*args)
    return caught.value


@pytest.mark.parametrize("sql", WRONG.values(), ids=WRONG.keys())
def test_bind_explain_and_submit_raise_one_sql_error(deployment, sql):
    first, second = (deployment.servers[n].database for n in ("S1", "S2"))
    expected = _error(bind, parse(sql), first.catalog)
    assert isinstance(expected, BindError)
    # A statement planned just before: the shared entry is occupied.
    first.explain("SELECT COUNT(*) AS n FROM orders o WHERE o.priority = 2")
    cached = [s.statement_cache_stats()["entries"] for s in (first, second)]
    for server in (first, first, second, first):
        error = _error(server.explain, sql)
        assert (type(error), str(error)) == (type(expected), str(expected))
    assert [s.statement_cache_stats()["entries"] for s in (first, second)] == cached

    integrator = deployment.integrator
    error = _error(integrator.submit, sql)
    assert (type(error), str(error)) == (type(expected), str(expected))
    assert integrator.plan_cache.stats()["entries"] == 0
    (record,) = integrator.patroller.records()
    assert record.status is QueryStatus.FAILED
    assert record.error == str(expected)


def test_a_wrong_statement_fails_alone_in_a_concurrent_run(deployment):
    runtime = ConcurrentRuntime(deployment.integrator)
    good = "SELECT COUNT(*) AS n FROM orders o WHERE o.priority = 2"
    handles = [
        runtime.submit_at(0.0, good),
        runtime.submit_at(1.0, WRONG["aggregate in WHERE"]),
        runtime.submit_at(2.0, good),
    ]
    runtime.run()
    assert [h.status for h in handles] == ["completed", "failed", "completed"]
    assert isinstance(handles[1].error, SqlError)
    assert all(
        record.status is not QueryStatus.RUNNING
        for record in deployment.integrator.patroller.records()
    )


# ---------------------------------------------------------------------------
# a grammar of well-formed statements, wrong anywhere
# ---------------------------------------------------------------------------

COLUMNS = {spec.name: [c for c, _, _ in spec.columns] for spec in table_specs(TEST_SCALE)}
#: The second table of a join is a small one, so no statement runs long.
SMALL = ("customer", "product", "supplier")

_LITERALS = st.sampled_from(
    ["0", "7", "2", "-3", "12.5", "0.001", "'AUTO'", "'a%'", "''", "TRUE", "FALSE", "NULL"]
)


def _columns(bound, sloppy):
    """Right column references; when *sloppy*, also ones from another
    table, unknown ones and bare ones (maybe ambiguous)."""
    right = st.sampled_from([f"{b}.{c}" for b, table in bound for c in COLUMNS[table]])
    if not sloppy:
        return right
    elsewhere = [
        f"{b}.{c}" for b, table in bound for other in COLUMNS
        for c in COLUMNS[other] if c not in COLUMNS[table]
    ]
    bare = [c for _, table in bound for c in COLUMNS[table]]
    return st.one_of(
        *[right] * 8,
        st.sampled_from(elsewhere),
        st.sampled_from(bare + ["zz", f"{bound[0][0]}.zz", "nobody.custkey"]),
    )


def _values(columns, depth=1):
    leaf = st.one_of(columns, columns, _LITERALS)
    if depth == 0:
        return leaf
    inner = _values(columns, depth - 1)
    return st.one_of(
        leaf,
        leaf,
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: f"({' '.join(p)})"),
        st.tuples(st.sampled_from(["ABS", "UPPER", "LOWER", "LENGTH"]), inner).map(
            lambda p: f"{p[0]}({p[1]})"
        ),
    )


def _aggregates(columns):
    return st.one_of(
        st.just("COUNT(*)"),
        st.tuples(
            st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]),
            st.sampled_from(["", "DISTINCT "]),
            _values(columns, 0),
        ).map(lambda p: f"{p[0]}({p[1]}{p[2]})"),
    )


@st.composite
def _conditions(draw, columns, depth=1, aggregates=False):
    value = _values(columns)
    if aggregates:
        value = st.one_of(value, _aggregates(columns))
    kind = draw(st.integers(0, 6 if depth else 4))
    left = draw(value)
    if kind == 0:
        op = draw(st.sampled_from(["=", "<>", "<", ">="]))
        return f"{left} {op} {draw(value)}"
    if kind == 1:
        values = ", ".join(draw(st.lists(_LITERALS, min_size=1, max_size=3)))
        return f"{left} {draw(st.sampled_from(['', 'NOT ']))}IN ({values})"
    if kind == 2:
        pattern = draw(st.sampled_from(["'A%'", "'_1'"]))
        return f"{left} {draw(st.sampled_from(['', 'NOT ']))}LIKE {pattern}"
    if kind == 3:
        return f"{left} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == 4:
        return left  # a value where a condition belongs
    inner = _conditions(columns, depth - 1, aggregates)
    if kind == 5:
        return f"NOT ({draw(inner)})"
    return f"({draw(inner)} {draw(st.sampled_from(['AND', 'OR']))} {draw(inner)})"


@st.composite
def statements(draw):
    """A SELECT over one table or a join with a small one, with values,
    conditions, aggregates and select-list positions in every clause."""
    first = draw(st.sampled_from(sorted(COLUMNS)))
    bound = [(first[0], first)]
    source = f"{first} {first[0]}"
    second = draw(st.sampled_from((None,) + SMALL))
    if second not in (None, first):
        bound.append((second[0], second))
    columns = _columns(bound, sloppy=draw(st.sampled_from([False, False, False, True])))
    if len(bound) == 2:
        joiner = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        source += f" {joiner} {second} {second[0]} ON {draw(_conditions(columns, 0))}"
    values, aggregates = _values(columns), _aggregates(columns)
    position = st.integers(0, 3).map(str)
    alias = st.sampled_from(["", "", " AS v"])
    # Grouped: the select list is the group keys and aggregates, as a
    # right statement has it; otherwise anything goes anywhere.
    grouped = draw(st.booleans())
    keys = draw(st.lists(_values(columns, 0), min_size=1, max_size=2))
    if grouped:
        items = [key + draw(alias) for key in keys]
        items += draw(st.lists(aggregates, min_size=1, max_size=2))
    else:
        item = st.tuples(st.one_of(values, values, aggregates), alias).map("".join)
        items = draw(st.lists(item, min_size=1, max_size=3))
    parts = ["SELECT", ", ".join(items), "FROM", source]
    if draw(st.booleans()):
        wrong = draw(st.integers(0, 5)) == 0
        parts += ["WHERE", draw(_conditions(columns, aggregates=wrong))]
    if grouped or draw(st.integers(0, 3)) == 0:
        if not grouped:
            key = st.one_of(*[values] * 4, position, aggregates)
            keys = draw(st.lists(key, min_size=1, max_size=2))
        elif draw(st.booleans()):
            keys = [str(i + 1) for i in range(len(keys))]
        parts += ["GROUP BY", ", ".join(keys)]
        if draw(st.booleans()):
            parts += ["HAVING", draw(_conditions(columns, aggregates=True))]
    if draw(st.booleans()):
        key = st.tuples(
            st.one_of(_values(columns, 0), position, position, aggregates),
            st.sampled_from(["", " DESC"]),
        ).map("".join)
        parts += ["ORDER BY", ", ".join(draw(st.lists(key, min_size=1, max_size=2)))]
    if draw(st.booleans()):
        parts += ["LIMIT", str(draw(st.integers(0, 20)))]
    return " ".join(parts)


@given(statements())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_generated_statements_raise_nothing_but_sql_errors(sample_databases, sql):
    database = sample_databases["S1"]
    try:
        bind(parse(sql), database.catalog)
    except SqlError:
        pass
    try:
        best = database.explain(sql)[0]
    except SqlError:
        return
    outcomes = []
    for engine in ENGINES:
        try:
            rows = execute_plan(
                best.plan, database.storage, engine=engine
            ).rows
        except SqlError as exc:
            outcomes.append(type(exc))
        else:
            outcomes.append(sorted(map(repr, rows)))
    assert outcomes[0] == outcomes[1], sql


def _submit(integrator, sql):
    """Sequential ``submit``: the status its record must settle in."""
    try:
        integrator.submit(sql)
    except SqlError:
        assert integrator.plan_cache.stats()["entries"] == 0, sql
        return QueryStatus.FAILED
    return QueryStatus.COMPLETED


def _concurrent(integrator, sql):
    """The concurrent runtime: nothing is left pending or live."""
    runtime = ConcurrentRuntime(integrator)
    handle = runtime.submit_at(0.0, sql)
    runtime.run()
    assert handle.status in ("completed", "failed"), (handle.status, sql)
    assert runtime.scheduler.live_processes == 0, sql
    if handle.status == "failed":
        assert isinstance(handle.error, SqlError), sql
        return QueryStatus.FAILED
    return QueryStatus.COMPLETED


@pytest.mark.parametrize("drive", [_submit, _concurrent], ids=["submit", "runtime"])
@given(sql=statements())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_generated_statements_settle_the_books(sample_databases, drive, sql):
    integrator = build_federation(
        scale=TEST_SCALE, prebuilt_databases=sample_databases
    ).integrator
    status = drive(integrator, sql)
    (record,) = integrator.patroller.records()
    assert record.status is status, sql
