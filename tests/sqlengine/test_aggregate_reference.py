"""``HashAggregate``'s columnar fold against the per-batch fold it replaced.

:class:`BatchFoldAggregate` is the columnar aggregation of the parent
commit, kept as the reference: every batch grouped on its own, each
aggregate folded once per (batch, group) through an inlined copy of
``_fold_agg_dense``, a separate branch for the no-key case.  Its float
sums are ``left_sum`` — the parent's builtin ``sum`` was that
left-to-right fold on CPython <= 3.11 only.  The operator itself buffers
batches into chunks of ``AGG_CHUNK_BATCHES * batch_size`` rows and folds
once per group per chunk.  A generated grammar of group keys
(none, one, composite, dictionary-coded, NULL), aggregates (``COUNT(*)``,
``COUNT(x)``, ``SUM``, ``AVG``, ``MIN`` / ``MAX`` over numbers and
strings, ``DISTINCT``, shared and computed arguments, ``HAVING``),
NULL-heavy and empty inputs and batch sizes must give ``==`` rows in
order and ``==`` meters on both, and on the row engine.  Every fold is
exact, so no tolerance is correct here.

The count test traces the C reductions one QT2 query makes at the
benchmark's ``steady_engine`` data scale: at most one per group, per
aggregate, per chunk — however many batches the join emits.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.numeric import left_sum
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
    AGG_CHUNK_BATCHES,
    Filter,
    HashAggregate,
    MaterializedInput,
    _AggState,
)
from repro.workload.queries import QT2
from repro.workload.schema import WorkloadScale, table_specs


# -- the parent's fold, kept as the reference ---------------------------------


def _fold_agg(state, values):
    """Fold a column slice into *state* exactly as repeated
    ``state.update(v)`` calls would — same accumulation order, same
    tie-breaking (``min``/``max`` keep the earlier value on ties) — but
    without per-value method dispatch."""
    if state.seen is not None:
        update = state.update
        for v in values:
            update(v)
        return
    name = state.name
    if name == "COUNT":
        state.count += sum(1 for v in values if v is not None)
        return
    if name in ("SUM", "AVG"):
        count = state.count
        total = state.total
        for v in values:
            if v is not None:
                count += 1
                total = v if total is None else total + v
        state.count = count
        state.total = total
        return
    if name == "MIN":
        count = state.count
        cur = state.min
        for v in values:
            if v is not None:
                count += 1
                if cur is None or v < cur:
                    cur = v
        state.count = count
        state.min = cur
        return
    if name == "MAX":
        count = state.count
        cur = state.max
        for v in values:
            if v is not None:
                count += 1
                if cur is None or v > cur:
                    cur = v
        state.count = count
        state.max = cur
        return
    update = state.update
    for v in values:
        update(v)


def _fold_agg_dense(state, values):
    """Fold a *null-free* column slice into *state* using C-level
    reductions.  ``min``/``max`` return the first extremum, matching
    ``_fold_agg``'s keep-the-earlier-value tie behaviour; ``left_sum`` is
    its left-to-right fold.  DISTINCT, empty slices and non-numeric
    SUM/AVG operands fall back to the generic fold."""
    if not values:
        return
    if state.seen is not None:
        _fold_agg(state, values)
        return
    name = state.name
    if name == "COUNT":
        state.count += len(values)
        return
    if name in ("SUM", "AVG"):
        first = values[0]
        if isinstance(first, (int, float)):
            total = state.total
            if total is None:
                # Seed with the first element (``0 + v`` would perturb
                # signed zeros), then fold the rest in order.
                state.total = left_sum(values[1:], first)
            else:
                state.total = left_sum(values, total)
            state.count += len(values)
            return
        _fold_agg(state, values)
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
    _fold_agg(state, values)


class BatchFoldAggregate(HashAggregate):
    """The parent commit's columnar aggregation, sums left-folded."""

    def _rows_columnar(self, ctx):
        meter = ctx.meter
        child_schema = self.child.output_schema
        key_kernels = [
            e.compile_columnar(child_schema) for e in self.group_by
        ]
        agg_specs = [
            (call.name.upper(), call.distinct) for call in self._agg_calls
        ]
        # Per-slot fold kind, so the dense per-group loop below can
        # dispatch without re-deriving it from the state every time:
        # "C" count, "S" sum/avg, "<" min, ">" max, "" generic fold.
        fold_kinds = []
        for name, distinct in agg_specs:
            if distinct:
                fold_kinds.append("")
            elif name == "COUNT":
                fold_kinds.append("C")
            elif name in ("SUM", "AVG"):
                fold_kinds.append("S")
            elif name == "MIN":
                fold_kinds.append("<")
            elif name == "MAX":
                fold_kinds.append(">")
            else:
                fold_kinds.append("")
        # Several aggregates often share one argument expression
        # (SUM(x), AVG(x), MIN(x)...): each distinct argument is
        # evaluated once per batch.  ``arg_keys[i]`` indexes the shared
        # column for call *i*, or is None for COUNT(*).
        arg_keys = []
        unique_kernels = []
        # Per unique argument: the child column index when the argument
        # is a bare column reference (so denseness can be read off the
        # column's validity metadata), else -1.
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

        # COUNT(*)-only grouping degenerates to a histogram: Counter
        # runs the whole per-batch bucket-and-count at C speed (it
        # preserves first-occurrence order, like the dict loop below).
        count_only = (
            bool(key_kernels)
            and all(ak is None for ak in arg_keys)
            and not any(distinct for _name, distinct in agg_specs)
        )

        # Dict-aware grouping: a single plain column-reference key over
        # a dictionary-encoded column buckets by integer code and only
        # decodes one string per *group* (code<->value is a bijection,
        # so first-occurrence group order is unchanged).
        single_ref_idx = -1
        if len(self.group_by) == 1 and isinstance(self.group_by[0], ColumnRef):
            single_ref_idx = child_schema.index_of(self.group_by[0].name)

        groups = {}
        get_group = groups.get
        single = len(key_kernels) == 1
        count_totals = Counter()
        per_row = max(len(self._agg_calls), 1) * AGG_UPDATE_COST
        consumed = 0
        for batch in self.child.rows_columnar(ctx):
            n = len(batch)
            consumed += n
            cols = [k(batch) for k in unique_kernels]
            # Null-free argument columns take the dense C-reduction fold;
            # validity metadata proves it for plain references, a single
            # identity-based ``in`` scan decides for computed arguments.
            dense = [
                (ri >= 0 and not batch.cols[ri].has_nulls())
                or None not in c
                for ri, c in zip(unique_ref_idx, cols)
            ]
            if not key_kernels:
                states = get_group(())
                if states is None:
                    states = groups[()] = [
                        _AggState(name, distinct)
                        for name, distinct in agg_specs
                    ]
                for state, ak in zip(states, arg_keys):
                    if ak is None:
                        state.count += n
                    elif dense[ak]:
                        _fold_agg_dense(state, cols[ak])
                    else:
                        _fold_agg(state, cols[ak])
                continue
            dictionary = None
            if single_ref_idx >= 0:
                view = batch.cols[single_ref_idx].dict_view()
                if view is not None:
                    codes, dictionary, _encode = view
                    sel = batch.sel
                    key_col = (
                        codes if sel is None else [codes[i] for i in sel]
                    )
                else:
                    key_col = key_kernels[0](batch)
            elif single:
                key_col = key_kernels[0](batch)
            else:
                key_col = list(zip(*[k(batch) for k in key_kernels]))
            if count_only:
                # Accumulate counts only; group states are built once,
                # after the stream (Counter preserves first-occurrence
                # order across updates, like the dict loop below).
                if dictionary is not None:
                    # Count integer codes at C speed, decode per batch
                    # (dictionaries are per-batch state, the decoded
                    # value is the stable key).
                    for code, cnt in Counter(key_col).items():
                        kv = dictionary[code] if code >= 0 else None
                        count_totals[kv] += cnt
                else:
                    count_totals.update(key_col)
                continue
            index_lists = {}
            get_list = index_lists.get
            for ri, kv in enumerate(key_col):
                lst = get_list(kv)
                if lst is None:
                    index_lists[kv] = [ri]
                else:
                    lst.append(ri)
            for kv, idxs in index_lists.items():
                if dictionary is not None:
                    kv = dictionary[kv] if kv >= 0 else None
                key = (kv,) if single else kv
                states = get_group(key)
                if states is None:
                    states = groups[key] = [
                        _AggState(name, distinct)
                        for name, distinct in agg_specs
                    ]
                # One gather per distinct argument per group, shared by
                # every aggregate folding that argument; dense folds are
                # inlined (same reductions as ``_fold_agg_dense``) so the
                # per-group-per-aggregate cost is one C reduction, not a
                # dispatching function call.
                n_idx = len(idxs)
                gathered = [None] * len(cols)
                for state, ak, kind in zip(states, arg_keys, fold_kinds):
                    if ak is None:
                        state.count += n_idx
                        continue
                    if not kind or not dense[ak]:
                        vals = gathered[ak]
                        if vals is None:
                            col = cols[ak]
                            vals = gathered[ak] = [col[i] for i in idxs]
                        _fold_agg(state, vals)
                        continue
                    if kind == "C":
                        # Dense COUNT(arg) needs no gather at all.
                        state.count += n_idx
                        continue
                    vals = gathered[ak]
                    if vals is None:
                        col = cols[ak]
                        vals = gathered[ak] = [col[i] for i in idxs]
                    if kind == "S":
                        first = vals[0]
                        if not isinstance(first, (int, float)):
                            _fold_agg(state, vals)
                            continue
                        total = state.total
                        state.total = (
                            left_sum(vals[1:], first)
                            if total is None
                            else left_sum(vals, total)
                        )
                        state.count += n_idx
                    elif kind == "<":
                        best = min(vals)
                        if state.min is None or best < state.min:
                            state.min = best
                        state.count += n_idx
                    else:
                        best = max(vals)
                        if state.max is None or best > state.max:
                            state.max = best
                        state.count += n_idx
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
        # HAVING and the output items run as columnar kernels over the
        # internal (keys + aggregates) rows of all groups at once.
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
#: coerces them to floats and dictionary-encodes ``s``.
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
    return HashAggregate(*args), BatchFoldAggregate(*args), database


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
def test_matches_per_batch_fold(
    rows, keys, aggregates, having, where, source, batch_size
):
    group = f" GROUP BY {', '.join(keys)}" if keys else ""
    sql = f"SELECT {', '.join(keys + tuple(aggregates))} FROM t{where}{group}{having}"
    plan, reference, database = aggregate_plans(rows, sql, source)
    expected = run(reference, database, "columnar", batch_size)
    assert run(plan, database, "columnar", batch_size) == expected, sql
    assert run(plan, database, "row", batch_size) == expected, sql


# -- C reductions per QT2 query ------------------------------------------------


@pytest.fixture(scope="module")
def steady_db():
    """The sample database at the ``steady_engine`` benchmark's scale."""
    database = Database(name="steady")
    populate(
        database,
        table_specs(WorkloadScale(large_rows=24_000, small_rows=1_200)),
        seed=7,
    )
    return database


_REDUCTIONS = {sum: "sum", min: "min", max: "max", reduce: "reduce"}
#: Where a fold's reduction is called from, besides ``HashAggregate``'s
#: own methods (``fold`` is the chunk fold inside ``_rows_columnar``).
_FOLDS = {"_fold_agg_dense", "left_sum", "fold"}


@pytest.mark.parametrize("batch_size", [256, 1024])
def test_qt2_reduces_once_per_group_aggregate_and_chunk(steady_db, batch_size):
    plan = steady_db.explain(QT2.instance(0).sql)[0].plan
    assert isinstance(plan, HashAggregate)
    rows_in = len(
        execute_plan(
            plan.child, steady_db.storage, engine="columnar"
        ).rows
    )
    calls = Counter()

    def trace(frame, event, arg):
        if event == "c_call" and arg in _REDUCTIONS:
            if frame.f_code.co_name in _FOLDS or isinstance(
                frame.f_locals.get("self"), HashAggregate
            ):
                calls[_REDUCTIONS[arg]] += 1

    sys.setprofile(trace)
    try:
        result = execute_plan(
            plan,
            steady_db.storage,
            engine="columnar",
            batch_size=batch_size,
        )
    finally:
        sys.setprofile(None)
    groups = len(result.rows)
    aggregates = sum(1 for call in plan._agg_calls if call.arg is not None)
    chunks = -(-rows_in // (AGG_CHUNK_BATCHES * batch_size))
    assert (groups, aggregates) == (50, 8)
    # Two calls per execution are not folds: ``max`` prices the per-row
    # meter charge and ``min`` bounds the one output batch.
    assert sum(calls.values()) <= groups * aggregates * chunks + 2, calls
