"""``HashAggregate``'s whole-input aggregation against the chunked fold
it replaced.

:class:`ChunkFoldAggregate` is the columnar aggregation of the parent
commit, kept as the reference: batches buffered into chunks of
``AGG_CHUNK_BATCHES * batch_size`` rows, each chunk grouped on its own
and every aggregate folded into one ``_AggState`` per group through
``_fold_agg_dense``.  The operator itself groups the whole input once
and computes each aggregate for all groups at once.  A generated grammar
of group keys (none, one, composite, string, NULL), aggregates
(``COUNT(*)``, ``COUNT(x)``, ``SUM``, ``AVG``, ``MIN`` / ``MAX`` over
numbers and strings, ``DISTINCT``, shared and computed arguments,
``HAVING``), NULL-heavy and empty inputs and batch sizes must give
``==`` rows in order and ``==`` meters on both, and on the row engine.
Every fold is exact, so no tolerance is correct here.  (The grammar
draws no NaN: there the reference is wrong, see
``test_columnar_engine.py::TestExtremesPastNaN``.)

The cost tests hold the operator to no per-group Python objects: no
``_AggState`` without DISTINCT, and as many Python function calls at
500 groups as at 5.
"""

from __future__ import annotations

import gc
import sys
from collections import Counter, defaultdict
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from repro.numeric import left_sum_from
from repro.sqlengine import (
    Column,
    ColumnRef,
    ColumnType,
    Database,
    Schema,
    execute_plan,
    populate,
)
from repro.sqlengine.columnar import ColumnBatch, ValueColumn
from repro.sqlengine.cost import AGG_UPDATE_COST, CPU_OPERATOR_COST
from repro.sqlengine.physical import (
    Filter,
    HashAggregate,
    MaterializedInput,
    _AggState,
)
from repro.workload import TEST_SCALE
from repro.workload.queries import QUERY_TYPES
from repro.workload.schema import table_specs


# -- the parent's fold, kept as the reference ---------------------------------

#: The reference groups its input in chunks of at least this many
#: batches' worth of rows (fewer at the end of the input).
AGG_CHUNK_BATCHES = 4


def _fold_agg_dense(state, values):
    """Fold a *null-free* column slice into *state* exactly as repeated
    ``state.update(v)`` calls would, with one C-level reduction where
    there is one."""
    if not values:
        return
    name = state.name
    if state.seen is None:
        if name == "COUNT":
            state.count += len(values)
            return
        first = values[0]
        if name in ("SUM", "AVG") and isinstance(first, (int, float)):
            total = state.total
            if total is None:
                state.total = left_sum_from(values[1:], first)
            else:
                state.total = left_sum_from(values, total)
            state.count += len(values)
            return
        if name == "MIN":
            best = min(values)
            if state.min is None or best < state.min:
                state.min = best
            state.count += len(values)
            return
        if name == "MAX":
            best = max(values)
            if state.max is None or best > state.max:
                state.max = best
            state.count += len(values)
            return
    update = state.update
    for v in values:
        update(v)


class ChunkFoldAggregate(HashAggregate):
    """The parent commit's columnar aggregation."""

    def _rows_columnar(self, ctx):
        meter = ctx.meter
        child_schema = self.child.output_schema
        key_kernels = [
            e.compile_columnar(child_schema) for e in self.group_by
        ]
        agg_specs = [
            (call.name.upper(), call.distinct) for call in self._agg_calls
        ]
        arg_keys = []
        unique_kernels = []
        unique_ref_idx = []
        seen_args = {}
        for call in self._agg_calls:
            if call.arg is None:
                arg_keys.append(None)
                continue
            sql = call.arg.sql()
            pos = seen_args.get(sql)
            if pos is None:
                pos = len(unique_kernels)
                seen_args[sql] = pos
                unique_kernels.append(call.arg.compile_columnar(child_schema))
                unique_ref_idx.append(
                    child_schema.index_of(call.arg.name)
                    if isinstance(call.arg, ColumnRef)
                    else -1
                )
            arg_keys.append(pos)

        count_only = (
            bool(key_kernels)
            and all(ak is None for ak in arg_keys)
            and not any(distinct for _name, distinct in agg_specs)
        )
        groups = {}
        single = len(key_kernels) == 1

        def fold(chunk, rows):
            """Group one chunk once; fold each aggregate once per group."""
            if len(chunk) == 1:
                key_col, cols, dense = chunk[0]
            else:
                key_parts, col_parts, dense_parts = zip(*chunk)
                key_col = (
                    list(chain.from_iterable(key_parts)) if key_kernels else None
                )
                cols = [list(chain.from_iterable(c)) for c in zip(*col_parts)]
                dense = [all(d) for d in zip(*dense_parts)]
            if not key_kernels:
                members = [((), None)]
            else:
                index_lists = defaultdict(list)
                for ri, kv in enumerate(key_col):
                    index_lists[kv].append(ri)
                members = index_lists.items()
            for kv, idxs in members:
                key = (kv,) if single else kv
                states = groups.get(key)
                if states is None:
                    states = groups[key] = [
                        _AggState(name, distinct)
                        for name, distinct in agg_specs
                    ]
                if idxs is None:
                    n, vals = rows, cols
                else:
                    n = len(idxs)
                    vals = [list(map(c.__getitem__, idxs)) for c in cols]
                vals = [
                    v if d else [x for x in v if x is not None]
                    for v, d in zip(vals, dense)
                ]
                for state, ak in zip(states, arg_keys):
                    if ak is None:
                        state.count += n
                    else:
                        _fold_agg_dense(state, vals[ak])

        chunk_limit = AGG_CHUNK_BATCHES * ctx.batch_size
        chunk = []
        chunk_rows = 0
        count_totals = Counter()
        per_row = max(len(self._agg_calls), 1) * AGG_UPDATE_COST
        consumed = 0
        for batch in chain(self.child.rows_columnar(ctx), (None,)):
            key_col = None
            if batch is not None:
                consumed += len(batch)
                if single:
                    key_col = key_kernels[0](batch)
                elif key_kernels:
                    key_col = list(zip(*[k(batch) for k in key_kernels]))
                if count_only:
                    count_totals.update(key_col)
                    continue
            if chunk and (batch is None or chunk_rows >= chunk_limit):
                fold(chunk, chunk_rows)
                chunk = []
                chunk_rows = 0
            if batch is None:
                break
            cols = [k(batch) for k in unique_kernels]
            dense = [
                ri >= 0 and not batch.cols[ri].has_nulls() for ri in unique_ref_idx
            ]
            chunk.append((key_col, cols, dense))
            chunk_rows += len(batch)
        meter.cpu_ms += consumed * per_row

        if count_totals:
            for kv, cnt in count_totals.items():
                states = [
                    _AggState(name, distinct) for name, distinct in agg_specs
                ]
                for state in states:
                    state.count += cnt
                groups[(kv,) if single else kv] = states

        if not groups and not self.group_by:
            groups[()] = [
                _AggState(name, distinct) for name, distinct in agg_specs
            ]

        per_group = len(self.items) * CPU_OPERATOR_COST
        meter.cpu_ms += len(groups) * per_group
        if not groups:
            return
        internal_schema = self._internal_schema()
        internal = ColumnBatch.from_rows(
            [
                key + tuple(s.result() for s in states)
                for key, states in groups.items()
            ],
            len(internal_schema),
        )
        if self.having is not None:
            sel = self._over_internal(self.having).compile_filter_columnar(
                internal_schema
            )(internal)
            if not sel:
                return
            internal = internal.with_sel(sel)
        out_cols = [
            self._over_internal(item.expr).compile_columnar(
                internal_schema
            )(internal)
            for item in self.items
            if item.expr is not None
        ]
        size = ctx.batch_size
        total = len(internal)
        for start in range(0, total, size):
            stop = min(start + size, total)
            yield ColumnBatch(
                tuple(ValueColumn(c[start:stop]) for c in out_cols),
                stop - start,
                None,
            )


# -- the generated grammar ----------------------------------------------------

SCHEMA = Schema(
    (
        Column("g", ColumnType.INT),
        Column("s", ColumnType.STR),
        Column("x", ColumnType.FLOAT),
        Column("y", ColumnType.INT),
    )
)

#: Values whose float sums round differently under any other order or
#: grouping of the additions, signed zeros, and NULLs.  A materialized
#: input keeps ``x``'s ints (mixed int/float folds); a stored table
#: coerces them to floats.
_X = st.sampled_from(
    [None, -0.0, 0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 1e16, -1e16, 1e-8, 3, 7]
)
_ROW = st.tuples(
    st.sampled_from([None, 0, 1, 2]),
    st.sampled_from([None, "a", "b", "ab", "c"]),
    _X,
    st.sampled_from([None, -3, 0, 1, 2, 10**6]),
)

KEYS = [(), ("g",), ("s",), ("g", "s"), ("s", "g")]
AGGREGATES = [
    "COUNT(*)", "COUNT(x)", "COUNT(s)", "SUM(x)", "AVG(x)", "MIN(x)",
    "MAX(x)", "SUM(y)", "AVG(y)", "MIN(s)", "MAX(s)", "COUNT(DISTINCT s)",
    "SUM(DISTINCT y)", "AVG(DISTINCT x)", "SUM(x * y)", "AVG(x + 1.5)",
    "MIN(y - 2)", "MAX(x * y)",
]
HAVING = ["", " HAVING COUNT(*) > 1", " HAVING SUM(y) > 0", " HAVING MIN(s) < 'b'"]
WHERE = ["", " WHERE y > 0", " WHERE x IS NOT NULL"]


SOURCES = {"stored": None, "materialized": MaterializedInput}


def aggregate_plans(rows, sql, source):
    """(operator plan, reference plan, database) for *sql* over *rows*."""
    database = Database(name="aggregate-reference")
    database.create_table("t", SCHEMA)
    if source == "stored":
        database.load_rows("t", rows)
    database.analyze()
    plan = database.explain(sql)[0].plan
    assert isinstance(plan, HashAggregate), plan.explain()
    child = plan.child
    if source != "stored":
        scan = child
        child = SOURCES[source]("t", scan.output_schema, rows)
        if scan.predicate is not None:
            child = Filter(child, scan.predicate)
    args = (child, plan.group_by, plan.items, plan.output_schema, plan.having)
    return HashAggregate(*args), ChunkFoldAggregate(*args), database


def run(plan, database, engine, batch_size):
    result = execute_plan(
        plan,
        database.storage,
        engine=engine,
        batch_size=batch_size,
    )
    meter = result.meter
    return result.rows, (meter.cpu_ms, meter.io_ms, meter.tuples_out)


@settings(deadline=None)
@given(
    rows=st.lists(_ROW, max_size=60),
    keys=st.sampled_from(KEYS),
    aggregates=st.lists(st.sampled_from(AGGREGATES), min_size=1, max_size=5),
    having=st.sampled_from(HAVING),
    where=st.sampled_from(WHERE),
    source=st.sampled_from(sorted(SOURCES)),
    batch_size=st.sampled_from([1, 2, 3, 7, 1024]),
)
def test_matches_chunk_fold(
    rows, keys, aggregates, having, where, source, batch_size
):
    group = f" GROUP BY {', '.join(keys)}" if keys else ""
    sql = f"SELECT {', '.join(keys + tuple(aggregates))} FROM t{where}{group}{having}"
    plan, reference, database = aggregate_plans(rows, sql, source)
    expected = run(reference, database, "columnar", batch_size)
    assert run(plan, database, "columnar", batch_size) == expected, sql
    assert run(plan, database, "row", batch_size) == expected, sql


# -- no per-group Python objects ----------------------------------------------


def test_no_aggregate_state_without_distinct(monkeypatch):
    database = Database(name="states")
    populate(database, table_specs(TEST_SCALE), seed=7)
    built = []
    init = _AggState.__init__

    def counting(self, name, distinct):
        built.append(name)
        init(self, name, distinct)

    monkeypatch.setattr(_AggState, "__init__", counting)
    for template in QUERY_TYPES:
        sql = template.instance(0).sql
        assert "DISTINCT" not in sql
        assert execute_plan(
            database.explain(sql)[0].plan, database.storage, engine="columnar"
        ).rows
    assert built == []


def _grouped_db(groups):
    """2 000 rows over *groups* keys, int and string, NULLs in ``x``."""
    database = Database(name=f"groups-{groups}")
    database.create_table("t", SCHEMA)
    database.load_rows(
        "t",
        [
            (i % groups, f"k{i % groups}", None if i % 7 == 0 else i / 8, i % 11)
            for i in range(2_000)
        ],
    )
    database.analyze()
    return database


#: 3.11's comprehensions are frames of their own; 3.12 inlines them
#: (PEP 709), so only function calls are counted.
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>"}


def _python_calls(database, sql):
    plan = database.explain(sql)[0].plan
    assert isinstance(plan, HashAggregate), plan.explain()
    calls = Counter()

    def trace(frame, event, arg):
        if event == "call" and frame.f_code.co_name not in _COMPREHENSIONS:
            calls[frame.f_code.co_name] += 1

    # The first run in a process fills caches in Python (the ABC
    # subclass cache); only later runs show the operator's own calls.
    execute_plan(plan, database.storage, engine="columnar")
    # A collection runs whatever ``gc.callbacks`` hold, in Python.
    gc.disable()
    sys.setprofile(trace)
    try:
        result = execute_plan(plan, database.storage, engine="columnar")
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls, len(result.rows)


@pytest.mark.parametrize("key", ["g", "s"], ids=["int-key", "str-key"])
@pytest.mark.parametrize(
    "aggregates",
    [
        "COUNT(*)",
        "COUNT(*), COUNT(x), SUM(x), AVG(x * y), MIN(x), MAX(x * y), "
        "SUM(DISTINCT y), MIN(s), MAX(y)",
    ],
    ids=["histogram", "folds"],
)
def test_python_calls_do_not_grow_with_groups(key, aggregates):
    sql = f"SELECT {key}, {aggregates} FROM t GROUP BY {key} HAVING COUNT(*) > 0"
    few, few_rows = _python_calls(_grouped_db(5), sql)
    many, many_rows = _python_calls(_grouped_db(500), sql)
    assert (few_rows, many_rows) == (5, 500)
    assert many == few
