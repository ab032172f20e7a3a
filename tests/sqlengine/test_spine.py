"""The generated spine loop against references that share none of it.

A drawn chain of one to three hash joins — inner and outer, unique and
repeated build keys, single and composite keys with NULL parts, NULL,
NaN, ``-0.0`` and ``1`` / ``1.0`` / ``True`` keys, residuals written
inline or run by the row evaluator, empty build and probe sides — runs
under an aggregate (every aggregate kind, DISTINCT, no GROUP BY, HAVING)
or under a projection, and under a ``LIMIT`` that abandons the joins'
stream.  The rows must equal, in order, a tuple-at-a-time nested loop
per join (``nested_loop_join``), folded by the chunked aggregation kept
in ``test_aggregate_reference.py``.  The meters must equal the
operators' documented charges replayed in their order (docs/execution.md,
"The spine"), the same at batch sizes 1, 2 and the default, and the same
with the profiler on, whose per-join rows are the nested loop's.

Stored tables drawn the same way (empty ones, and predicates that reject
every row) feed an aggregate's leaf and a join's build side through a
``SeqScan`` under zero to two ``Filter``s, which those consumers read in
one pass: rows and meters must equal the same nodes' own streams at
batch sizes 1, 2 and the default, and so must each scan's and filter's
profile.  A ``LIMIT`` over a batch sink, whose leaf still streams, keeps
the meters it had before scans were read whole.

A build side read whole is kept on its storage across queries: each such
plan runs twice, a miss and then a hit, with equal rows, meters and
profiles; a drawn INSERT, UPDATE, DELETE or ``load_copy`` between two
runs leaves the plan answering and metering as over a fresh storage; and
the kept rows and entries stay within ``MAX_BUILD_ROWS`` and
``MAX_SHAPES``, a write freeing its table's entries.  A kept build's
rows are its table's positions and its columns the table version's
padded lists, shared by every build of that version: it holds no list
per row of its own.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.profile import profiling
from repro.sqlengine import (
    And,
    Arithmetic,
    Column,
    ColumnRef,
    ColumnType,
    Comparison,
    Database,
    Filter,
    IsNull,
    Literal,
    Or,
    Schema,
    SeqScan,
    execute_plan,
)
from repro.sqlengine import spine
from repro.sqlengine.cost import (
    AGG_UPDATE_COST,
    CPU_OPERATOR_COST,
    CPU_TUPLE_COST,
    HASH_BUILD_COST,
    HASH_PROBE_COST,
)
from repro.sqlengine.expressions import AggregateCall
from repro.sqlengine.parser import SelectItem
from repro.sqlengine.physical import (
    DEFAULT_BATCH_SIZE,
    HashAggregate,
    HashJoin,
    Limit,
    MaterializedInput,
    PhysicalPlan,
    Project,
)
from tests.sqlengine.test_aggregate_reference import ChunkFoldAggregate
from tests.sqlengine.test_columnar_engine import nested_loop_join

#: One NaN object: a dict finds it by identity, as the nested loop's
#: list comparison does.
NAN = float("nan")

KEYS = st.sampled_from([None, 0, 1, 1.0, True, -0.0, 0.0, NAN, 2, 3])
VALUES = st.sampled_from([None, -0.0, 0.1, 0.2, 0.3, 2.5, 3, 1e16, -1e16])


def _schema(table):
    return Schema(
        (
            Column("k1", ColumnType.FLOAT, table),
            Column("k2", ColumnType.INT, table),
            Column("v", ColumnType.FLOAT, table),
        )
    )


def _rows(draw, most):
    return draw(st.lists(st.tuples(KEYS, KEYS, VALUES), max_size=most))


@st.composite
def residuals(draw, left, right):
    """None, or a residual over the join's two sides: inline operators,
    or a shape the row evaluator runs (OR)."""
    lv, rv = ColumnRef(f"{left}.v"), ColumnRef(f"{right}.v")
    return draw(
        st.sampled_from(
            [
                None,
                Comparison("<", lv, rv),
                Comparison(">", Arithmetic("+", lv, rv), Literal(1.0)),
                IsNull(rv),
                Or(Comparison(">", lv, Literal(0.15)), Comparison("<", rv, Literal(1.0))),
                And(IsNull(lv, negated=True), Comparison("=", ColumnRef(f"{right}.k2"), Literal(1))),
            ]
        )
    )


@st.composite
def chains(draw):
    """(probe rows, [(build rows, join)], top join) for 1-3 joins."""
    probe_rows = _rows(draw, 10)
    node = MaterializedInput("probe", _schema("p"), probe_rows)
    tables = ["p"]
    levels = []
    for level in range(draw(st.integers(1, 3))):
        name = f"b{level}"
        build_rows = _rows(draw, 6)
        if draw(st.booleans()):
            # Repeated keys: every key value at least twice.
            build_rows = build_rows + build_rows[:3]
        width = draw(st.sampled_from([1, 2]))
        left = [
            f"{draw(st.sampled_from(tables))}.{draw(st.sampled_from(['k1', 'k2']))}"
            for _ in range(width)
        ]
        right = [f"{name}.k1", f"{name}.k2"][:width]
        join = HashJoin(
            node,
            MaterializedInput(name, _schema(name), build_rows),
            left,
            right,
            residual=draw(residuals(draw(st.sampled_from(tables)), name)),
            outer=draw(st.booleans()),
        )
        levels.append((build_rows, join))
        tables.append(name)
        node = join
    return probe_rows, levels, node


def reference_rows(probe_rows, levels):
    """Each level's rows, one nested loop per join."""
    rows = [probe_rows]
    for build_rows, join in levels:
        rows.append(nested_loop_join(join, rows[-1], build_rows))
    return rows


def _key_pairs(join, probe, build):
    """Candidate pairs before the residual: equal keys, no NULL part."""
    left = [join.left.output_schema.index_of(k) for k in join.left_keys]
    right = [join.right.output_schema.index_of(k) for k in join.right_keys]
    pairs = 0
    for p in probe:
        key = [p[i] for i in left]
        if None not in key:
            pairs += sum(1 for b in build if key == [b[i] for i in right])
    return pairs


def expected_cpu(probe_rows, levels, rows, sink_charges):
    """The charges, replayed in the order the operators make them:
    builds outermost first (the build input's rows, then the build),
    the probe side's rows, each level's probes and candidates innermost
    first, then the sink's."""
    cpu = 0.0
    for build_rows, _join in reversed(levels):
        cpu += len(build_rows) * CPU_TUPLE_COST
        cpu += len(build_rows) * HASH_BUILD_COST
    cpu += len(probe_rows) * CPU_TUPLE_COST
    for level, (build_rows, join) in enumerate(levels):
        cpu += len(rows[level]) * HASH_PROBE_COST
        cpu += _key_pairs(join, rows[level], build_rows) * CPU_TUPLE_COST
    for charge in sink_charges:
        cpu += charge
    return cpu


def run(plan, batch_size=DEFAULT_BATCH_SIZE):
    result = execute_plan(plan, Database("spine").storage, batch_size=batch_size)
    meter = result.meter
    return result.rows, (meter.cpu_ms, meter.io_ms, meter.tuples_out)


def exact(rows):
    """Rows as types and reprs: ``==`` cannot tell ``-0.0`` from ``0.0``
    or ``1`` from ``1.0``."""
    return [tuple((type(v).__name__, repr(v)) for v in row) for row in rows]


def check(plan, expected_rows, cpu, levels, rows):
    got_rows, meters = run(plan)
    assert exact(got_rows) == exact(expected_rows)
    assert meters == (cpu, 0.0, len(expected_rows))
    for size in (1, 2):
        assert run(plan, size) == (got_rows, meters), size
    with profiling() as profiler:
        assert run(plan) == (got_rows, meters)
    profile = profiler.capture()
    for level, (_build, join) in enumerate(levels):
        assert profile.stats_for(join).rows_out == len(rows[level + 1])


AGGREGATES = [
    "COUNT(*)", "COUNT(x)", "SUM(x)", "AVG(x)", "MIN(x)", "MAX(x)",
    "COUNT(DISTINCT x)", "SUM(DISTINCT x)", "AVG(DISTINCT x)",
    "MIN(DISTINCT x)", "SUM(y)", "MAX(x * y)", "SUM(x + y)",
]


def _aggregate(name, x, y):
    distinct = "DISTINCT" in name
    fn, _, arg = name.partition("(")
    arg = arg.rstrip(")").replace("DISTINCT ", "")
    exprs = {
        "*": None,
        "x": x,
        "y": y,
        "x * y": Arithmetic("*", x, y),
        "x + y": Arithmetic("+", x, y),
    }
    return AggregateCall(fn, exprs[arg], distinct)


@settings(deadline=None)
@given(
    chain=chains(),
    aggregates=st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=4),
    keys=st.integers(0, 2),
    having=st.booleans(),
    data=st.data(),
)
def test_aggregate_over_the_spine(chain, aggregates, keys, having, data):
    probe_rows, levels, top = chain
    rows = reference_rows(probe_rows, levels)
    columns = [c.qualified_name for c in top.output_schema.columns]
    pick = lambda suffix: ColumnRef(data.draw(st.sampled_from([c for c in columns if c.endswith(suffix)])))
    x, y = pick(".v"), pick(".v")
    group_by = [pick(data.draw(st.sampled_from([".k1", ".k2", ".v"]))) for _ in range(keys)]
    calls = [_aggregate(name, x, y) for name in aggregates]
    items = [SelectItem(e) for e in group_by] + [SelectItem(c) for c in calls]
    schema = Schema(tuple(Column(f"o{i}", ColumnType.FLOAT) for i in range(len(items))))
    condition = (
        Comparison(">", AggregateCall("COUNT", None), Literal(1)) if having else None
    )
    args = (group_by, items, schema, condition)
    plan = HashAggregate(top, *args)
    reference = ChunkFoldAggregate(
        MaterializedInput("joined", top.output_schema, rows[-1]), *args
    )
    expected, _meters = run(reference)
    consumed = len(rows[-1])
    groups = len({(): None} if not group_by else {
        tuple(r[top.output_schema.index_of(e.name)] for e in group_by): None
        for r in rows[-1]
    })
    sink = [
        consumed * (max(len(plan._agg_calls), 1) * AGG_UPDATE_COST),
        groups * (len(items) * CPU_OPERATOR_COST),
    ]
    check(plan, expected, expected_cpu(probe_rows, levels, rows, sink), levels, rows)


@settings(deadline=None)
@given(chain=chains(), data=st.data())
def test_projection_over_the_spine(chain, data):
    probe_rows, levels, top = chain
    rows = reference_rows(probe_rows, levels)
    columns = top.output_schema.columns
    picked = data.draw(
        st.lists(st.sampled_from(range(len(columns))), min_size=1, max_size=4)
    )
    plan = Project(
        top,
        [SelectItem(ColumnRef(columns[i].qualified_name)) for i in picked],
        Schema(tuple(columns[i] for i in picked)),
    )
    expected = [tuple(r[i] for i in picked) for r in rows[-1]]
    sink = [len(rows[-1]) * (len(picked) * CPU_OPERATOR_COST)]
    check(plan, expected, expected_cpu(probe_rows, levels, rows, sink), levels, rows)


@settings(deadline=None)
@given(chain=chains(), limit=st.integers(0, 12), size=st.sampled_from([1, 2, 3, 1024]))
def test_limit_abandoning_the_spine(chain, limit, size):
    # The limit pulls leaf batches until its rows are in, then abandons
    # the joins' stream: the leaf's rows so far are charged first, then
    # each level's probes and candidates so far, innermost first — the
    # order exhausted streams charge in.
    probe_rows, levels, top = chain
    plan = Limit(top, limit)
    consumed = 0
    out = 0
    while limit and consumed < len(probe_rows) and out < limit:
        batch = probe_rows[consumed : consumed + size]
        consumed += len(batch)
        out += len(reference_rows(batch, levels)[-1])
    rows = reference_rows(probe_rows[:consumed], levels)
    cpu = expected_cpu(probe_rows[:consumed], levels, rows, []) if limit else 0.0
    got_rows, meters = run(plan, size)
    assert exact(got_rows) == exact(rows[-1][:limit])
    assert meters == (cpu, 0.0, len(got_rows))
    with profiling():
        assert run(plan, size) == (got_rows, meters)


@pytest.mark.parametrize("outer", [False, True], ids=["inner", "outer"])
def test_residual_rejecting_every_candidate_pads_an_outer_row(outer):
    probe = [(1, 1, 0.5), (2, 1, 0.5)]
    build = [(1, 1, 0.1), (1, 2, 0.2), (2, 1, 9.0)]
    join = HashJoin(
        MaterializedInput("probe", _schema("p"), probe),
        MaterializedInput("b0", _schema("b0"), build),
        ["p.k1"],
        ["b0.k1"],
        residual=Comparison(">", ColumnRef("b0.v"), Literal(1.0)),
        outer=outer,
    )
    rows, _meters = run(join)
    padded = [(1, 1, 0.5, None, None, None)] if outer else []
    assert rows == padded + [(2, 1, 0.5, 2, 1, 9.0)]


# ---------------------------------------------------------------------------
# Scans read whole
# ---------------------------------------------------------------------------

STORED = st.tuples(
    st.sampled_from([None, -0.0, 0.0, 1.0, 2.0, NAN]),
    st.sampled_from([None, 0, 1, 2, 3]),
    st.sampled_from([None, -0.0, 0.1, 0.2, 2.5, 1e16]),
)


def _conditions(table):
    """Conditions over *table*: inline conjuncts, two conjuncts, one that
    rejects every row and one the row evaluator runs (OR)."""
    k1, k2, v = (ColumnRef(f"{table}.{c}") for c in ("k1", "k2", "v"))
    return st.sampled_from(
        [
            Comparison(">", v, Literal(0.15)),
            IsNull(k1, negated=True),
            And(Comparison("<", v, Literal(2.0)), Comparison("<>", k2, Literal(1))),
            Comparison(">", v, Literal(1e300)),
            Or(IsNull(v), Comparison(">", Arithmetic("+", v, k1), Literal(1.5))),
        ]
    )


@st.composite
def stored_sides(draw, database, table):
    """A stored table of 0-12 drawn rows, scanned with or without a
    predicate under 0-2 ``Filter``s: (top node, every node top-down)."""
    database.create_table(table, _schema(table))
    database.load_rows(table, draw(st.lists(STORED, max_size=12)))
    predicate = draw(st.one_of(st.none(), _conditions(table)))
    node = SeqScan(database.catalog.lookup(table), table, predicate)
    chain = [node]
    for _ in range(draw(st.integers(0, 2))):
        node = Filter(node, draw(_conditions(table)))
        chain.insert(0, node)
    return node, chain


class Streamed(PhysicalPlan):
    """*child*'s own stream, whoever consumes it: the reference a scan
    read whole is held to."""

    def __init__(self, child):
        self.child = child
        self.output_schema = child.output_schema

    def children(self):
        return (self.child,)

    def _rows_columnar(self, ctx):
        return self.child.rows_columnar(ctx)

    def describe(self):
        return "Streamed()"


def _profiled(plan, database, size):
    with profiling() as profiler:
        rows, meters = _executed(plan, database, size)
    return rows, meters, profiler.capture()


def _executed(plan, database, size):
    result = execute_plan(plan, database.storage, batch_size=size)
    meter = result.meter
    return exact(result.rows), (meter.cpu_ms, meter.io_ms, meter.tuples_out)


def _fields(stats, names=("invocations", "batches", "rows_out", "phys_rows", "meter_ms")):
    return tuple(getattr(stats, name) for name in names)


def _over(leaf, build, outer, sink):
    """(the join or the leaf, the plan): *leaf* joined to *build* (if
    any) on ``k2``, under a projection of every column or an aggregate
    grouped by ``p.k2``."""
    node = leaf
    if build is not None:
        node = HashJoin(node, build, ["p.k2"], ["b.k2"], outer=outer)
    if sink == "project":
        columns = node.output_schema.columns
        return node, Project(
            node, [SelectItem(ColumnRef(c.qualified_name)) for c in columns], Schema(columns)
        )
    last = ColumnRef(node.output_schema.columns[-1].qualified_name)
    items = [
        SelectItem(ColumnRef("p.k2")),
        SelectItem(AggregateCall("COUNT", None)),
        SelectItem(AggregateCall("SUM", last)),
    ]
    schema = Schema(tuple(Column(f"o{i}", ColumnType.FLOAT) for i in range(3)))
    return node, HashAggregate(node, [ColumnRef("p.k2")], items, schema)


@settings(deadline=None)
@given(
    data=st.data(),
    joined=st.booleans(),
    outer=st.booleans(),
    sink=st.sampled_from(["aggregate", "project"]),
)
def test_scans_read_whole_match_their_streams(data, joined, outer, sink):
    # Each plan runs twice per batch size, profiled and not: the first
    # build of a stored side is kept on the storage, the second takes it
    # and replays its charges and its profile windows.
    database = Database("whole")
    leaf, nodes = data.draw(stored_sides(database, "p"))
    build = None
    if joined:
        build, build_nodes = data.draw(stored_sides(database, "b"))
        nodes = nodes + build_nodes

    def plan(wrap):
        return _over(wrap(leaf), None if build is None else wrap(build), outer, sink)

    (join, whole), (streamed_join, streamed) = plan(lambda node: node), plan(Streamed)
    kept = database.storage.builds
    for sizes, size in enumerate((1, 2, DEFAULT_BATCH_SIZE), 1):
        rows, meters, profile = _profiled(streamed, database, size)
        for attempt in ("miss", "hit"):
            assert _executed(whole, database, size) == (rows, meters), size
            got_rows, got_meters, got = _profiled(whole, database, size)
            assert (got_rows, got_meters) == (rows, meters), size
            for node in nodes:
                assert _fields(got.stats_for(node)) == _fields(profile.stats_for(node)), (node, size)
            # A join fused into the aggregate's loop counts the leaf's windows.
            assert _fields(got.stats_for(join)) == _fields(profile.stats_for(streamed_join))
            assert _fields(got.stats_for(whole)) == _fields(profile.stats_for(streamed))
            # Unprofiled and profiled builds are kept apart, once each.
            assert len(kept) == (2 * sizes if joined else 0)
            if attempt == "miss":
                entries = list(kept.values())
            assert list(kept.values()) == entries


def _write(draw, database, table):
    """One drawn write to *table*: an INSERT, an UPDATE or a DELETE of
    the rows with a drawn ``k2``, or a ``load_copy`` of drawn rows."""
    heap = database.storage.table(table)
    kind = draw(st.sampled_from(["insert", "update", "delete", "copy"]))
    k2 = draw(st.sampled_from([None, 0, 1, 2, 3]))
    if kind == "insert":
        heap.insert_many(draw(st.lists(STORED, min_size=1, max_size=4)))
    elif kind == "update":
        v = draw(STORED)[2]
        heap.update_rows(lambda row: row[1] == k2, lambda row: (row[0], row[1], v))
    elif kind == "delete":
        heap.delete_rows(lambda row: row[1] == k2)
    else:
        source = Database("source")
        source.create_table(table, _schema(table))
        source.load_rows(table, draw(st.lists(STORED, max_size=12)))
        database.load_copy(table, source)
    return kind


@settings(deadline=None)
@given(
    data=st.data(),
    outer=st.booleans(),
    sink=st.sampled_from(["aggregate", "project"]),
    size=st.sampled_from([1, 2, DEFAULT_BATCH_SIZE]),
    profiled=st.booleans(),
)
def test_a_write_between_two_runs_rebuilds_what_it_changed(data, outer, sink, size, profiled):
    # A kept build is its table's at the version it was read: after any
    # write, the plan runs as it does over a fresh storage holding the
    # same rows, and so does its next run, from the build kept then.
    database = Database("written")
    leaf, _ = data.draw(stored_sides(database, "p"))
    build, _ = data.draw(stored_sides(database, "b"))
    join, plan = _over(leaf, build, outer, sink)
    execute = _profiled if profiled else _executed
    execute(plan, database, size)
    assert len(database.storage.builds) == 1
    for _ in range(data.draw(st.integers(1, 3))):
        _write(data.draw, database, data.draw(st.sampled_from(["p", "b"])))
    fresh = Database("fresh")
    for table in ("p", "b"):
        fresh.create_table(table, _schema(table))
        fresh.load_rows(table, database.storage.table(table).rows)
    expected = execute(plan, fresh, size)
    for _run in ("after the write", "from the build kept then"):
        got = execute(plan, database, size)
        assert got[:2] == expected[:2]
        if profiled:
            for node in (leaf, build, join, plan):
                assert _fields(got[2].stats_for(node)) == _fields(expected[2].stats_for(node))


def _budget_plan(database, above):
    """``COUNT(*)`` over ``p`` joined to the rows of ``b`` with ``v > above``."""
    p, b = (database.catalog.lookup(t) for t in ("p", "b"))
    build = SeqScan(b, "b", Comparison(">", ColumnRef("b.v"), Literal(above)))
    return _over(SeqScan(p, "p"), build, False, "aggregate")[1]


def test_kept_builds_stay_within_their_row_budget(monkeypatch):
    monkeypatch.setattr(spine, "MAX_BUILD_ROWS", 12)
    database = Database("budget")
    for table in ("p", "b"):
        database.create_table(table, _schema(table))
        database.load_rows(table, [(float(i), i % 5, float(i)) for i in range(10)])
    kept = database.storage.builds

    def run(above):
        before = dict(kept)
        result = _executed(_budget_plan(database, above), database, DEFAULT_BATCH_SIZE)
        assert kept.rows == sum(b.size - 1 for b in kept.values()) <= spine.MAX_BUILD_ROWS
        return result, {k: v for k, v in kept.items() if before.get(k) is not v}

    # Admitted while there is room: 7 rows, then 5.
    _result, new = run(2.5)
    assert [b.size - 1 for b in new.values()] == [7] and kept.rows == 7
    _result, new = run(4.5)
    assert [b.size - 1 for b in new.values()] == [5] and kept.rows == 12
    # Full: a third build runs, and nothing is admitted or evicted.
    entries = list(kept.values())
    result, new = run(6.5)
    assert not new and list(kept.values()) == entries
    assert result == run(6.5)[0]
    # A write to ``b`` frees its entries for the next build, which fits.
    database.storage.table("b").insert_many([(1.0, 1, 9.5)])
    _result, new = run(6.5)
    assert [b.size - 1 for b in new.values()] == [4] and list(kept.values()) == list(new.values())
    assert kept.rows == 4


def test_kept_builds_stay_within_their_entry_budget(monkeypatch):
    monkeypatch.setattr(spine, "MAX_SHAPES", 2)
    database = Database("entries")
    for table in ("p", "b"):
        database.create_table(table, _schema(table))
        database.load_rows(table, [(float(i), i % 5, float(i)) for i in range(10)])
    kept = database.storage.builds
    for above in (2.5, 4.5, 6.5):
        _executed(_budget_plan(database, above), database, DEFAULT_BATCH_SIZE)
    assert [b.size - 1 for b in kept.values()] == [7, 5]


def _owned_lists(build):
    """The lists a kept build reaches without going through its table's
    projection (``values``) or a function: its dict's, its script's."""
    lists, stack = [], [getattr(build, slot) for slot in type(build).__slots__]
    stack.append(build.get.__self__)
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            if isinstance(obj, list):
                lists.append(obj)
            stack.extend(obj)
    return lists


@pytest.mark.parametrize("size", [1, 2, DEFAULT_BATCH_SIZE])
def test_kept_builds_share_their_tables_columns(monkeypatch, size):
    # A kept scan build is only its hash table: row i of its table is id
    # i + 1 behind the NULL row, and its columns are the table version's
    # own padded lists, which every build of that version shares.  A write
    # gives the next build fresh lists, and sweeps the written entries.
    monkeypatch.setattr(spine, "MAX_BUILD_ROWS", 12)
    database = Database("shared")
    for table in ("p", "b"):
        database.create_table(table, _schema(table))
        database.load_rows(table, [(float(i), i % 5, float(i)) for i in range(10)])
    heap = database.storage.table("b")
    kept = database.storage.builds

    def build(above):
        before = dict(kept)
        result = _executed(_budget_plan(database, above), database, size)
        fresh = Database("fresh")
        for table in ("p", "b"):
            fresh.create_table(table, _schema(table))
            fresh.load_rows(table, database.storage.table(table).rows)
        assert result == _executed(_budget_plan(fresh, above), fresh, size)
        (new,) = [b for k, b in kept.items() if before.get(k) is not b]
        rows = heap.rows
        for j in range(3):
            assert new.values(j) == [None] + [row[j] for row in rows]
        for k2 in range(5):
            ids = tuple(i + 1 for i, row in enumerate(rows) if row[1] == k2 and row[2] > above)
            got = new.get(k2)
            assert ((got,) if new.unique and got else got) == (ids or None)
        assert all(len(owned) < new.size - 1 for owned in _owned_lists(new))
        return new

    first, second = build(2.5), build(4.5)
    assert first.values.__self__ is heap.columnar()
    assert all(first.values(j) is second.values(j) for j in range(3))
    heap.insert_many([(1.0, 1, 9.5)])
    third = build(6.5)
    assert all(third.values(j) is not first.values(j) for j in range(3))
    assert list(kept.values()) == [third] and kept.rows == third.size - 1 == 4


#: The digest of ``test_limit_over_a_batch_sink_keeps_its_meters``'s rows
#: and meters as they were before scans were read whole.
LIMITED_METERS = "e8194ae905e71cf365d7f559127612df75abc23bf93934fd1acca77f005a3fc3"


def test_limit_over_a_batch_sink_keeps_its_meters():
    # The batch sink's leaf streams: the limit abandons it after the
    # windows it pulled, which are all the scan charges for.  The build
    # side (a filtered scan) is read whole, with its stream's charges.
    database = Database("limit")
    for table in ("p", "b"):
        database.create_table(table, _schema(table))
        database.load_rows(
            table, [(float(i % 7), i % 5, i * 0.25) for i in range(60 if table == "p" else 9)]
        )
    p, b = (database.catalog.lookup(t) for t in ("p", "b"))
    results = []
    for limit in (0, 1, 3, 7, 20, 100):
        for size in (1, 2, 3, 8, DEFAULT_BATCH_SIZE):
            join = HashJoin(
                SeqScan(p, "p", Comparison(">", ColumnRef("p.v"), Literal(2.0))),
                Filter(SeqScan(b, "b"), Comparison("<>", ColumnRef("b.k1"), Literal(3.0))),
                ["p.k2"],
                ["b.k2"],
            )
            results.append((limit, size, _executed(Limit(join, limit), database, size)))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == LIMITED_METERS
