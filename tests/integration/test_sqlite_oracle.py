"""SQLite is the answer oracle: an engine that is not this code.

Every other equivalence proof compares this code with itself (row vs
columnar, faulted vs fault-free twin, lone vs concurrent), so a shared
bug in the parser, three-valued logic, outer joins or the plan that
finishes a query is invisible to them.  Here stdlib ``sqlite3``, loaded
with the same rows (:class:`~repro.chaos.sqlite_answers.SqliteAnswers`),
answers the same SQL and the rows must agree under
``rows_close_unordered``:

* QT1-QT5, instances 0-2, through a bare ``Database``,
  ``InformationIntegrator.submit`` on both topologies, and the
  ``ConcurrentRuntime`` on both topologies;
* a bounded grammar of filter / inner join / left join / group by /
  having / distinct / order by / limit statements, through a bare
  ``Database`` and ``submit`` on both topologies.  It
  keeps to the dialect the two engines share (the module docstring of
  ``repro.chaos.sqlite_answers``): no ``/`` or ``%``, no ``+`` on
  strings, and ORDER BY only on keys that are never NULL and make the
  order total, so a LIMIT keeps the same rows in both;
* every distinct SQL text of the four ``BENCHMARK.json`` workloads,
  through a bare ``Database`` loaded as the benchmark loads its data
  (traffic seed 11 here; CI also runs seed 29).  The benchmark's own
  answer check compares the federation with a bare ``Database`` running
  the same engine, so this is where an independent engine sees its
  texts.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.runner import replica_databases
from repro.chaos.sqlite_answers import SqliteAnswers
from repro.fed import ConcurrentRuntime, FederationError
from repro.harness import build_federation, build_replica_federation
from repro.sqlengine import (
    Database,
    execute_plan,
    populate,
    rows_close_unordered,
)
from repro.workload import TEST_SCALE, build_workload, table_specs
from repro.workload.queries import EXTENDED_QUERY_TYPES

#: The benchmark's workload definitions, imported as its own tests do
#: (``benchmarks/e2e/tests/conftest.py``) and never edited from here.
E2E = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e"
if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))

import workloads as e2e  # noqa: E402

WORKLOAD = [
    template.instance(instance_id)
    for template in EXTENDED_QUERY_TYPES
    for instance_id in range(3)
]


@pytest.fixture(scope="module")
def sqlite(sample_databases):
    return SqliteAnswers(sample_databases.values())


def _topologies(sample_databases):
    """(name, a fresh deployment) for the three-server and the replica
    topology, over the same rows."""
    return [
        (
            "triple",
            build_federation(scale=TEST_SCALE, prebuilt_databases=sample_databases),
        ),
        (
            "replica",
            build_replica_federation(
                scale=TEST_SCALE, prebuilt_databases=replica_databases()
            ),
        ),
    ]


@pytest.fixture(scope="module")
def deployments(sample_databases):
    return _topologies(sample_databases)


def _assert_local_answers(database, sqlite, sql):
    expected = sqlite.answer(sql)
    rows = execute_plan(database.explain(sql)[0].plan, database.storage).rows
    assert rows_close_unordered(rows, expected), sql


def _assert_federated_answers(deployments, sqlite, sql):
    expected = sqlite.answer(sql)
    for topology, deployment in deployments:
        try:
            rows = deployment.integrator.submit(sql).rows
        except FederationError:
            # The decomposer pushes an outer join down whole, and the
            # replica topology hosts orders and lineitem, or customer and
            # supplier, on different servers.
            assert topology == "replica" and "LEFT JOIN" in sql, sql
            continue
        assert rows_close_unordered(rows, expected), (topology, sql)


# -- the workload -----------------------------------------------------------


@pytest.mark.parametrize("query", WORKLOAD, ids=lambda q: f"{q.query_type}-{q.instance_id}")
def test_bare_database_answers_equal_sqlite(sample_databases, sqlite, query):
    _assert_local_answers(sample_databases["S1"], sqlite, query.sql)


@pytest.mark.parametrize("query", WORKLOAD, ids=lambda q: f"{q.query_type}-{q.instance_id}")
def test_submitted_answers_equal_sqlite(deployments, sqlite, query):
    _assert_federated_answers(deployments, sqlite, query.sql)


def test_concurrent_answers_equal_sqlite(sample_databases, sqlite):
    for topology, deployment in _topologies(sample_databases):
        runtime = ConcurrentRuntime(deployment.integrator)
        handles = [
            runtime.submit_at(5.0 * index, query.sql, label=query.query_type)
            for index, query in enumerate(WORKLOAD)
        ]
        runtime.run()
        for handle in handles:
            assert handle.result is not None, (topology, handle.sql, handle.error)
            assert rows_close_unordered(handle.result.rows, sqlite.answer(handle.sql)), (
                topology,
                handle.sql,
            )


# -- the grammar ------------------------------------------------------------

#: alias -> (table, {column: (type, lowest, highest)}) over the sample
#: schema at test scale; bounds pick literals that split the data.
TABLES = {
    "c": ("customer", {
        "custkey": ("int", 0, 80), "nation": ("int", 1, 25),
        "acctbal": ("float", 0, 10_000), "segment": ("str", 0, 0),
    }),
    "o": ("orders", {
        "orderkey": ("int", 0, 800), "custkey": ("int", 0, 80),
        "totalprice": ("float", 100, 10_000), "priority": ("int", 1, 5),
    }),
    "l": ("lineitem", {
        "orderkey": ("int", 0, 800), "prodkey": ("int", 0, 80),
        "quantity": ("int", 1, 50), "extprice": ("float", 10, 1_000),
    }),
    "p": ("product", {
        "prodkey": ("int", 0, 80), "category": ("int", 1, 50),
        "price": ("float", 1, 500), "brand": ("str", 0, 0),
    }),
    "s": ("supplier", {
        "suppkey": ("int", 0, 80), "nation": ("int", 1, 25),
        "rating": ("int", 1, 10),
    }),
}

#: (left alias, right alias, equi-join condition).
JOINS = (
    ("c", "o", "c.custkey = o.custkey"),
    ("o", "l", "o.orderkey = l.orderkey"),
    ("l", "p", "l.prodkey = p.prodkey"),
    ("c", "s", "c.nation = s.nation"),
)

#: Upper and lower case both occur, so a case-folding LIKE would show.
LIKE_PATTERNS = ("A%", "%A%", "%a%", "_U%", "%ING", "%E_")


@st.composite
def _literal(draw, kind, low, high):
    if kind == "int":
        return str(draw(st.integers(low, high)))
    return f"{draw(st.integers(low * 100, high * 100)) / 100:.2f}"


@st.composite
def _atom(draw, columns):
    """One predicate over *columns*: (alias.column, type, low, high)."""
    ref, kind, low, high = draw(st.sampled_from(columns))
    if kind == "str":
        shape = draw(st.sampled_from(["like", "not like", "null"]))
        if shape == "null":
            return f"{ref} IS NULL"
        pattern = draw(st.sampled_from(LIKE_PATTERNS))
        return f"{ref} {shape.upper()} '{pattern}'"
    shape = draw(st.sampled_from(["compare", "between", "in", "null"]))
    if shape == "compare":
        op = draw(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]))
        return f"{ref} {op} {draw(_literal(kind, low, high))}"
    if shape == "between":
        a, b = sorted(
            (draw(_literal(kind, low, high)), draw(_literal(kind, low, high))),
            key=float,
        )
        return f"{ref} BETWEEN {a} AND {b}"
    if shape == "in":
        values = draw(st.lists(_literal(kind, low, high), min_size=1, max_size=4))
        return f"{ref} IN ({', '.join(values)})"
    return f"{ref} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"


@st.composite
def _condition(draw, columns):
    atoms = draw(st.lists(_atom(columns), min_size=1, max_size=3))
    text = atoms[0]
    for atom in atoms[1:]:
        text = f"({text}) {draw(st.sampled_from(['AND', 'OR']))} {atom}"
    return f"NOT ({text})" if draw(st.booleans()) else text


@st.composite
def statements(draw):
    """A statement and nothing else: dialect-shared by construction."""
    aliases = draw(st.sampled_from([None, *JOINS]))
    nullable = set()
    if aliases is None:
        alias = draw(st.sampled_from(sorted(TABLES)))
        used = [alias]
        source = f"{TABLES[alias][0]} {alias}"
    else:
        left, right, on = aliases
        used = [left, right]
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        if kind == "LEFT JOIN":
            nullable.add(right)
        columns = [
            (f"{right}.{name}", *spec)
            for name, spec in TABLES[right][1].items()
            if spec[0] != "str"
        ]
        if draw(st.booleans()):
            on += f" AND {draw(_atom(columns))}"
        source = (
            f"{TABLES[left][0]} {left} {kind} {TABLES[right][0]} {right} ON {on}"
        )
    columns = [
        (f"{alias}.{name}", *spec)
        for alias in used
        for name, spec in TABLES[alias][1].items()
    ]
    parts = []
    where = f" WHERE {draw(_condition(columns))}" if draw(st.booleans()) else ""

    def may_be_null(ref):
        return ref.split(".")[0] in nullable

    if draw(st.booleans()):
        keys = draw(st.lists(st.sampled_from(columns), max_size=2, unique=True))
        numeric = [c for c in columns if c[1] != "str"]
        aggregates = []
        for _ in range(draw(st.integers(1, 3))):
            function = draw(st.sampled_from(["COUNT", "SUM", "AVG", "MIN", "MAX"]))
            ref = draw(st.sampled_from(numeric))[0]
            if function in ("SUM", "AVG") and draw(st.booleans()):
                ref = f"{ref} {draw(st.sampled_from(['*', '+', '-']))} {draw(st.sampled_from(numeric))[0]}"
            if function == "COUNT" and draw(st.booleans()):
                ref = "*"
            aggregates.append(f"{function}({ref})")
        items = [key[0] for key in keys] + [
            f"{aggregate} AS a{index}" for index, aggregate in enumerate(aggregates)
        ]
        parts.append(f"SELECT {', '.join(items)} FROM {source}{where}")
        if keys:
            parts.append(f"GROUP BY {', '.join(key[0] for key in keys)}")
        if draw(st.booleans()):
            parts.append(f"HAVING COUNT(*) > {draw(st.integers(0, 5))}")
        order = list(range(1, len(keys) + 1))
        ordered = [key[0] for key in keys]
    else:
        picked = draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3, unique=True))
        distinct = "DISTINCT " if draw(st.booleans()) else ""
        items = [column[0] for column in picked]
        parts.append(f"SELECT {distinct}{', '.join(items)} FROM {source}{where}")
        order = list(range(1, len(items) + 1))
        ordered = items
    if order and not any(map(may_be_null, ordered)) and draw(st.booleans()):
        # Every output key, so ties are equal rows and the order is total.
        keys = [f"{position} {draw(st.sampled_from(['ASC', 'DESC']))}" for position in order]
        parts.append(f"ORDER BY {', '.join(keys)}")
        if draw(st.booleans()):
            parts.append(f"LIMIT {draw(st.integers(0, 12))}")
    return " ".join(parts)


@given(statements())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_grammar_answers_equal_sqlite_locally(sample_databases, sqlite, sql):
    _assert_local_answers(sample_databases["S1"], sqlite, sql)


@given(statements())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_grammar_answers_equal_sqlite_federated(deployments, sqlite, sql):
    _assert_federated_answers(deployments, sqlite, sql)


# -- the benchmark's texts ----------------------------------------------------


def benchmark_texts(spec, seed):
    """The distinct SQL texts *spec* submits under traffic *seed*.

    ``paper_phases`` submits the texts of the data seed in an order the
    traffic seed deals, so its texts do not depend on *seed*."""
    if isinstance(spec, e2e.PhaseSweep):
        queries = build_workload(
            instances_per_type=spec.instances_per_type,
            seed=e2e.DATA_SEED,
            shuffle=False,
        )
        texts = [query.sql for query in queries]
    else:
        texts = [arrival.sql for arrival in e2e.generate_stream(spec, seed)]
    return list(dict.fromkeys(texts))


def benchmark_disagreements(name, seed):
    """(texts checked, texts whose rows differ from SQLite's) for workload
    *name* at traffic *seed*, over a ``Database`` loaded as the benchmark
    loads its data."""
    spec = e2e.WORKLOADS[name]
    database = Database(name=name)
    populate(database, table_specs(spec.scale), seed=e2e.DATA_SEED)
    sqlite = SqliteAnswers([database])
    texts = benchmark_texts(spec, seed)
    wrong = [
        sql
        for sql in texts
        if not rows_close_unordered(database.run(sql).rows, sqlite.answer(sql))
    ]
    return len(texts), wrong


@pytest.mark.parametrize("workload", sorted(e2e.WORKLOADS))
def test_benchmark_texts_equal_sqlite(workload):
    checked, wrong = benchmark_disagreements(workload, seed=11)
    assert checked and wrong == []
