"""Generated code: a hash aggregation or a hash join, with the hash-join
probes down the left edge of its input, as one Python loop; and every
expression kernel (``selection_kernel`` / ``value_kernel``).

A *spine* is the chain of ``HashJoin`` nodes along the left edge of a
plan — level 0 the innermost, whose left child is the spine's *leaf* —
and a *sink*: the ``HashAggregate`` above the chain (the aggregate sink)
or the outermost join's own output (the batch sink).  Build sides and
the aggregate sink's leaf come through ``rows_whole`` (a scan in one
pass), the batch sink's leaf through ``rows_columnar``; everything
between the leaf and the sink runs in one generated function, per row:

* look the row's keys up in each level's build table, innermost first,
  binding the build columns that the rest of the spine reads;
* evaluate each level's residual, and pad an outer level's row that has
  no surviving match with the build side's NULL row (id 0);
* aggregate sink: evaluate the group keys and aggregate arguments and
  update per-group accumulators (first-seen group order, left folds,
  first extrema, DISTINCT by first occurrence);
* batch sink: append the row's leaf position and build row ids, emitted
  once per leaf batch as ``TakeColumn`` / ``GatherColumn`` columns.  A
  lone unique level without a residual probes a whole batch at once
  (``map`` over the key column) instead.

No join output, gather list, row-id list or per-group slice exists under
the aggregate sink.  A generated function's source holds no SQL text and
no value of the plan: literals, row evaluators, build tables and build
columns are its parameters, by name, so one function serves every plan
of one shape and is compiled once per source text.

A scan read whole as a build side is kept on its storage (``_built``):
its build rows are its table's positions and its columns the table
version's own padded lists, so a kept build is only its hash table.
Metering is the operators' own: ``built x HASH_BUILD_COST`` after each
build, then, once the leaf stream has ended, ``probed x HASH_PROBE_COST``
and ``examined x CPU_TUPLE_COST`` per level, innermost first.  An
abandoned batch sink closes its leaf first and then charges the same
way: nested join streams unwound bottom-up.  Under the profiler each
join inside a generated loop reports the rows, batches and inclusive
meter windows its own stream would have had (``obs.profile.FusedOperator``).
"""

from __future__ import annotations

import hashlib
from collections import Counter
from functools import partial
from itertools import compress, repeat
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs.profile import NULL_PROFILER
from .columnar import ColumnBatch, GatherColumn, TakeColumn
from .cost import CPU_TUPLE_COST, HASH_BUILD_COST, HASH_PROBE_COST
from .expressions import (
    AggregateCall,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    IsNull,
    Like,
    Literal,
    walk,
)
from .types import Column, Schema

#: ``co_filename`` prefix of every generated function, before a digest of
#: its source: a profiler keeps one entry per source.
FILENAME = "<spine>"

#: Functions (by source text), shapes and kernel shapes kept, each.
MAX_SHAPES = 256

#: Build rows (in at most MAX_SHAPES builds) a storage keeps (``_built``):
#: about 40 B each, so 10 MiB at most (docs/execution.md, "Kept builds").
MAX_BUILD_ROWS = 1 << 18

_FUNCTIONS: Dict[str, Callable[..., Any]] = {}

#: Row ids, one int object each, shared by every build's tables.
_IDS: List[int] = []

#: The free names of generated code besides its parameters.
_GLOBALS = {"repeat": repeat, "compress": compress, "Counter": Counter, "PAD": (0,)}


def _function(source: str, name: str) -> Callable[..., Any]:
    """The function *name* that *source* defines, compiled once per text."""
    fn = _FUNCTIONS.get(source)
    if fn is None:
        namespace = dict(_GLOBALS)
        digest = hashlib.blake2s(source.encode(), digest_size=4).hexdigest()
        exec(compile(source, FILENAME + digest, "exec"), namespace)
        # Popped: a namespace holding its own function is a cycle, and
        # garbage for the collector once the function is dropped.
        fn = _kept(_FUNCTIONS, source, namespace.pop(name))
    return fn


def _kept(cache: Dict[Any, Any], key: Any, value: Any) -> Any:
    """Store *value* under *key*, dropping the oldest of MAX_SHAPES entries."""
    if len(cache) >= MAX_SHAPES:
        del cache[next(iter(cache))]
    cache[key] = value
    return value


# ---------------------------------------------------------------------------
# Build sides
# ---------------------------------------------------------------------------


class _Build:
    """One level's hash table from keys to build row ids.

    ``values(j)`` is build column *j* behind the NULL row: ids start at 1,
    so a miss is the falsy id 0 and outer padding reads slot 0.  A scan
    build's rows are its table's (row *i* is id *i* + 1, *sel* the
    selected positions) and its columns the table version's padded lists,
    shared by every build of it; any other build side passes its batches
    concatenated, every row selected (*sel* None).  So a kept build holds
    its dict and no list per row: even its ids are ``_IDS``' ints.
    ``size`` is its rows + 1 (charged and budgeted), ``span`` its columns'
    length.  One C-level ``dict`` over the key column classifies the
    build: it is unique (no non-NULL key twice; ``1``, ``1.0`` and
    ``True`` are one key) iff ``singles`` holds one entry per non-NULL
    key.  A unique build without a residual is probed for one id; every
    other build maps keys to ascending id buckets (tuples).  ``script`` is
    its scan's charges.
    """

    __slots__ = ("values", "get", "unique", "size", "span", "script")

    def __init__(
        self,
        values: Callable[[int], List[Any]],
        sel: Optional[List[int]],
        right_idx: Sequence[int],
        residual: Optional[Expression],
    ):
        self.values = values
        columns = [values(j) for j in right_idx]
        self.span = len(columns[0])
        if len(_IDS) < self.span:
            _IDS.extend(range(len(_IDS), self.span))
        ids: List[int] = _IDS  # every row, behind the NULL row's key
        if sel is not None:
            ids = list(map(_IDS.__getitem__, map((1).__add__, sel)))
            columns = [list(map(column.__getitem__, ids)) for column in columns]
        if len(columns) == 1:
            keys = columns[0]
        else:
            # A NULL component makes the whole key NULL.
            keys = [None if None in key else key for key in zip(*columns)]
        self.size = len(keys) + (sel is not None)
        singles = dict(zip(keys, ids))
        singles.pop(None, None)
        unique = len(singles) == len(keys) - keys.count(None)
        self.unique = unique and residual is None
        if self.unique:
            self.get = singles.get
        elif unique:
            self.get = {key: (rid,) for key, rid in singles.items()}.get
        else:
            buckets: Dict[Any, Any] = {}
            setdefault = buckets.setdefault
            for rid, key in zip(ids, keys):
                if key is not None:
                    setdefault(key, []).append(rid)
            for key, rids in buckets.items():
                buckets[key] = tuple(rids)
            self.get = buckets.get


def _built(right: Any, join: "_Level", ctx: Any) -> _Build:
    """Level *join*'s build over *right*, charged; a scan read whole is
    kept on its storage, and a later build of its key takes it as it is
    and replays its script (docs/execution.md, "The spine")."""
    from .physical import _concat_column, _scan_chain, _whole_run

    chain = _scan_chain(right)
    if chain is None:
        batches = list(right.rows_columnar(ctx))
        columns = [[None, *_concat_column(batches, j)] for j in range(join.width)]
        build = _Build(columns.__getitem__, None, join.right_idx, join.residual)
    else:
        heap = ctx.storage.table(chain[0].table.name)
        key = (
            heap, heap._version, right.signature(), join.right_idx,
            join.residual is None, ctx.batch_size, ctx.profiler is NULL_PROFILER,
        )
        build = ctx.storage.builds.get(key)
        # Unpacking runs the pass to its end, so its charges have landed.
        [(batch, script)] = _whole_run(chain, ctx, None if build is None else build.script)
        if build is None:
            sel = [] if batch is None else batch.sel
            build = _Build(heap.columnar().padded, sel, join.right_idx, join.residual)
            build.script = script
            _admit(ctx.storage, key, build)
    ctx.meter.cpu_ms += (build.size - 1) * HASH_BUILD_COST
    return build


def _admit(storage: Any, key: Tuple[Any, ...], build: _Build) -> None:
    """Keep *build* while there is room, short of which the entries of
    tables written since are swept out, once per write; nothing else leaves."""
    kept = storage.builds
    rows = build.size - 1
    if kept.rows + rows > MAX_BUILD_ROWS or len(kept) >= MAX_SHAPES:
        clock = sum(heap._version for heap in storage._tables.values())
        if clock != kept.clock:
            kept.clock = clock
            for stale in [k for k in kept if k[0]._version != k[1]]:
                kept.rows -= kept.pop(stale).size - 1
    if kept.rows + rows <= MAX_BUILD_ROWS and len(kept) < MAX_SHAPES:
        kept[key] = build
        kept.rows += rows


def _joined(
    providers: Sequence[Sequence[Callable[[], List[Any]]]],
    batch: ColumnBatch,
    positions: List[int],
    gathers: Sequence[List[int]],
) -> ColumnBatch:
    """The batch sink's output for one leaf batch: the leaf columns at
    *positions* (reused as they are when every row survives in physical
    order), then each level's build columns gathered at its row ids."""
    if batch.sel is None and positions is batch.selected():
        cols = list(batch.cols)
    else:
        cols = [TakeColumn(col, positions) for col in batch.cols]
    for level, ids in zip(providers, gathers):
        cols.extend(GatherColumn(provider, ids) for provider in level)
    return ColumnBatch(tuple(cols), len(positions), None)


# ---------------------------------------------------------------------------
# Source text
# ---------------------------------------------------------------------------


class _Source:
    """The lines of one generated function and its parameters, in order."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        #: parameter name -> how an execution obtains its value
        self.params: Dict[str, Tuple[Any, ...]] = {}
        self._temps = 0

    def line(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def param(self, prefix: str, spec: Tuple[Any, ...]) -> str:
        name = f"{prefix}{len(self.params)}"
        self.params[name] = spec
        return name

    def temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def text(self) -> str:
        """The source, its second line unpacking the parameters from ``P``."""
        names = ", ".join(self.params)
        self.lines[1] = "    " + (f"{names}, = P" if names else "pass")
        return "\n".join(self.lines) + "\n"


def _positions(expr: Expression, schema: Schema) -> Dict[str, int]:
    """Column name -> position in *schema*, for every column *expr* reads."""
    return {
        node.name: schema.index_of(node.name)
        for node in walk(expr)
        if isinstance(node, ColumnRef)
    }


#: SQL operators spelled otherwise in Python.
_PYTHON_OPS = {"=": "==", "<>": "!="}


def _rewrite(expr: Expression, positions: Dict[str, int]) -> Expression:
    """*expr* over the tuple of the columns it reads, named ``c<position>``."""
    if isinstance(expr, ColumnRef):
        return ColumnRef(f"c{positions[expr.name]}")
    children = tuple(_rewrite(c, positions) for c in expr.children())
    if not children:
        return expr
    from .logical import _rebuild

    return _rebuild(expr, children)


def _evaluator(expr: Expression, schema: Schema) -> Callable[[Tuple[Any, ...]], Any]:
    """The row evaluator of *expr* over the tuple of the columns it reads,
    in position order."""
    positions = _positions(expr, schema)
    used = sorted(set(positions.values()))
    columns = tuple(Column(f"c{p}", schema.columns[p].ctype) for p in used)
    return _rewrite(expr, positions).compile(Schema(columns))


def _write_expression(
    src: _Source, depth: int, expr: Expression, schema: Schema
) -> str:
    """Emit the statements computing *expr*; return the name holding it.

    An inline expression (``_inline_shape``) that raises ``TypeError`` or
    ``ZeroDivisionError`` is re-evaluated by the row evaluator, so its
    value or its first error is the row evaluator's.  Every other shape
    calls the row evaluator over the tuple of the columns it reads.
    """
    positions = _positions(expr, schema)
    if isinstance(expr, (ColumnRef, Literal)):
        return _write_inline(src, expr, positions)
    target = src.temp()
    if _inline_shape(expr, schema, []) is None:
        src.line(depth, f"{target} = {_write_call(src, expr, schema)}")
        return target
    src.line(depth, "try:")
    src.line(depth + 1, f"{target} = {_write_inline(src, expr, positions)}")
    src.line(depth, "except (TypeError, ZeroDivisionError):")
    src.line(depth + 1, f"{target} = {_write_call(src, expr, schema)}")
    return target


def _write_call(src: _Source, expr: Expression, schema: Schema) -> str:
    """The row evaluator of *expr* called on the columns it reads."""
    evaluator = src.param("E", ("static", _evaluator(expr, schema)))
    row = "".join(f"c{p}, " for p in sorted(set(_positions(expr, schema).values())))
    return f"{evaluator}(({row}))"


def _write_inline(
    src: _Source, expr: Expression, positions: Dict[str, int], select: bool = False
) -> str:
    """*expr* as one Python expression over the row's column variables
    ``c<position>``, with the row evaluator's NULL rule (an operator with
    a NULL operand is NULL; ``+ - * /`` raise ``TypeError`` on one
    instead); literals, LIKE matchers and IN sets are parameters.
    *select* writes a comparison, LIKE or IN as a test that holds exactly
    where its value is True: ``c is not None and c op L``."""
    if isinstance(expr, ColumnRef):
        return f"c{positions[expr.name]}"
    if isinstance(expr, Literal):
        return src.param("L", ("static", expr.value))
    if isinstance(expr, IsNull):
        first = _write_operand(src, expr.operand, positions)[0]
        return f"{first} is {'not ' if expr.negated else ''}None"
    if isinstance(expr, (Like, InList)):
        operands = [_write_operand(src, expr.operand, positions)]
        name = operands[0][1]
        if isinstance(expr, Like):
            match = src.param("M", ("static", expr._regex().match))
            value = f"{match}({name}) is {'' if expr.negated else 'not '}None"
        else:
            members = src.param("S", ("static", set(expr.values)))
            value = f"{name} {'not ' if expr.negated else ''}in {members}"
    else:
        operands = [_write_operand(src, e, positions) for e in (expr.left, expr.right)]
        op = _PYTHON_OPS.get(expr.op, expr.op)
        if isinstance(expr, Arithmetic) and op != "%":
            # None raises TypeError here (but ``"%s" % None`` formats).
            return f"({operands[0][0]} {op} {operands[1][0]})"
        value = f"{operands[0][1]} {op} {operands[1][1]}"
    test = _null_test(operands, select)
    if not test:
        return value
    return f"{test} and {value}" if select else f"None if {test} else {value}"


def _write_operand(
    src: _Source, expr: Expression, positions: Dict[str, int]
) -> Tuple[str, str, bool]:
    """(first use, later uses, may be NULL) of an operand: a computed one
    is bound to a temporary where it is first used."""
    value = _write_inline(src, expr, positions)
    if isinstance(expr, ColumnRef):
        return value, value, True
    if isinstance(expr, Literal):
        return value, value, expr.value is None
    target = src.temp()
    return f"({target} := {value})", target, True


def _null_test(operands: Sequence[Tuple[str, str, bool]], negated: bool) -> str:
    """Whether some operand is NULL (*negated*: none is).  Each computed
    operand is evaluated, as the row evaluator does: ``|`` / ``&`` join
    the tests when the second one binds a temporary."""
    tests = [
        f"{first} is {'not ' if negated else ''}None"
        for first, _later, nullable in operands
        if nullable
    ]
    if len(tests) == 2 and operands[1][0] != operands[1][1]:
        return (" & " if negated else " | ").join(f"({t})" for t in tests)
    return (" and " if negated else " or ").join(tests)


# ---------------------------------------------------------------------------
# Expression kernels
# ---------------------------------------------------------------------------


def selection_kernel(
    expr: Expression, schema: Schema
) -> Callable[[ColumnBatch], List[int]]:
    """The kernel of a predicate over batches of *schema*: the sorted
    physical indices of the selected rows where *expr* is True."""
    return _kernel(expr, schema, True)


def value_kernel(expr: Expression, schema: Schema) -> Callable[[ColumnBatch], List[Any]]:
    """The kernel of an expression over batches of *schema*: one value
    per selected row, in selection order."""
    return _kernel(expr, schema, False)


#: Kernel functions by what their source depends on (``_kernel``).
_KERNELS: Dict[Tuple[Any, ...], Callable[..., Any]] = {}


def _kernel(expr: Expression, schema: Schema, selection: bool) -> Callable[..., Any]:
    """The generated function ``kernel(P, batch)``, bound to its parameters.

    The selected rows run as one list comprehension over the columns
    *expr* reads.  An inline comparison, IS NULL, LIKE or IN selects by
    ``_write_inline``'s test, any other predicate where its value ``is
    True``.  An inline expression that raises ``TypeError`` or
    ``ZeroDivisionError`` hands the whole batch to the row evaluator, so
    values, three-valued logic and the first error are the row
    evaluator's.  Later kernels of a shape only gather their parameters.
    """
    params: List[Any] = []
    shape = _inline_shape(expr, schema, params)
    if shape is not None:
        key = (selection, shape)
        params.append(expr.compile(schema))
    else:
        key = (selection, tuple(sorted(set(_positions(expr, schema).values()))))
        params = [_evaluator(expr, schema)]
    fn = _KERNELS.get(key)
    if fn is None:
        source = _write_kernel(expr, schema, selection, shape is not None).text()
        fn = _kept(_KERNELS, key, _function(source, "kernel"))
    return partial(fn, tuple(params))


def _inline_shape(expr: Expression, schema: Schema, params: List[Any]) -> Any:
    """What ``_write_inline``'s source for *expr* depends on (its tree, its
    columns' positions, its literals' NULL-ness), or None if it is not
    inline; the parameters it names go to *params*, operands' first."""
    if isinstance(expr, ColumnRef):
        return f"c{schema.index_of(expr.name)}"
    if isinstance(expr, Literal):
        params.append(expr.value)
        return "NULL" if expr.value is None else "L"
    if not isinstance(expr, (Arithmetic, Comparison, IsNull, Like, InList)):
        return None
    operands = tuple([_inline_shape(c, schema, params) for c in expr.children()])
    if None in operands:
        return None
    if isinstance(expr, Like):
        params.append(expr._regex().match)
    elif isinstance(expr, InList):
        params.append(set(expr.values))
    return (type(expr).__name__, getattr(expr, "op", ""), getattr(expr, "negated", False), operands)


def _write_kernel(expr: Expression, schema: Schema, selection: bool, inline: bool) -> _Source:
    """The source of ``_kernel``'s function for *expr*."""
    positions = _positions(expr, schema)
    used = sorted(set(positions.values()))
    src = _Source()
    src.line(0, "def kernel(P, batch):")
    src.line(1, "")  # the parameter unpacking, written last
    predicate = inline and isinstance(expr, (Comparison, IsNull, Like, InList))
    if inline:
        value = _write_inline(src, expr, positions, selection and predicate)
    else:
        value = _write_call(src, expr, schema)
    names = ", ".join(f"c{p}" for p in used)
    if not selection:
        lists = ", ".join(f"batch.column_values({p})" for p in used)
        rows = f"zip({lists})" if len(used) > 1 else lists or "repeat(None, len(batch))"
        body = f"[{value} for {names or '_'} in {rows}]"
    else:
        # Each selected physical index, its columns' values bound by name.
        for p in used:
            src.line(1, f"v{p} = batch.cols[{p}].values()")
        loop = "for i in (range(batch.n_rows) if batch.sel is None else batch.sel)"
        if used:
            loop += f" for {names}, in (({''.join(f'v{p}[i], ' for p in used)}),)"
        if not predicate:
            value = f"({value}) is True"
        body = f"[i {loop} if {value}]"
    if not inline:
        src.line(1, f"return {body}")
    else:
        evaluate = src.param("E", ("static", None))
        src.line(1, "try:")
        src.line(2, f"return {body}")
        src.line(1, "except (TypeError, ZeroDivisionError):")
        src.line(2, f"values = map({evaluate}, batch.materialize())")
        src.line(2, "return " + (
            "list(compress(batch.selected(), [v is True for v in values]))"
            if selection else "list(values)"
        ))
    return src


# ---------------------------------------------------------------------------
# Aggregate sink
# ---------------------------------------------------------------------------

#: Accumulator folds per aggregate argument, in the order they are kept.
_FOLDS = ("count", "sum", "min", "max")


class _Accumulators:
    """The aggregate sink's folds: per distinct argument expression (by
    SQL text), which folds it needs, with and without DISTINCT.  ``AVG``
    is the ``sum`` fold over the ``count`` fold; ``COUNT(*)`` is the
    group size."""

    def __init__(self, calls: Sequence[AggregateCall]):
        self.calls = list(calls)
        self.count_star = any(call.arg is None for call in self.calls)
        #: argument SQL -> (argument, {(distinct, fold)})
        self.args: Dict[str, Tuple[Expression, Set[Tuple[bool, str]]]] = {}
        for call in self.calls:
            if call.arg is None:
                continue
            folds = self.args.setdefault(call.arg.sql(), (call.arg, set()))[1]
            name = call.name.upper()
            if name in ("SUM", "AVG"):
                folds.add((call.distinct, "sum"))
            if name in ("COUNT", "AVG"):
                folds.add((call.distinct, "count"))
            if name in ("MIN", "MAX"):
                folds.add((call.distinct, name.lower()))
        #: (argument number, distinct, fold) per accumulator ``A<n>``
        self.order: List[Tuple[int, bool, str]] = [
            (a, distinct, fold)
            for a, (_arg, folds) in enumerate(self.args.values())
            for distinct in (False, True)
            for fold in _FOLDS
            if (distinct, fold) in folds
        ]
        #: arguments with a DISTINCT fold, each with a ``D<a>`` seen-set list
        self.seen = sorted({a for a, distinct, _fold in self.order if distinct})

    def results(self, sizes: List[int], accs: Sequence[List[Any]]) -> List[List[Any]]:
        """One result column per aggregate call, over all groups."""
        index = dict(zip(self.order, accs))
        numbers = {sql: a for a, sql in enumerate(self.args)}
        columns = []
        for call in self.calls:
            name = call.name.upper()
            if call.arg is None:
                columns.append(sizes)
                continue
            a = numbers[call.arg.sql()]
            if name == "AVG":
                totals = index[a, call.distinct, "sum"]
                counts = index[a, call.distinct, "count"]
                columns.append(
                    [None if t is None else t / c for t, c in zip(totals, counts)]
                )
            else:
                fold = "sum" if name == "SUM" else name.lower()
                columns.append(index[a, call.distinct, fold])
        return columns

    def lists(self) -> List[Tuple[str, str]]:
        """(name, initial value) of every per-group list but ``N``."""
        out = [
            (f"A{n}", "0" if fold == "count" else "None")
            for n, (_a, _distinct, fold) in enumerate(self.order)
        ]
        out.extend((f"D{a}", "set()") for a in self.seen)
        return out


# ---------------------------------------------------------------------------
# Spines
# ---------------------------------------------------------------------------


class _Level:
    """What a shape keeps of one ``HashJoin``: no plan node, so a shape
    shared by many plans keeps none of them alive."""

    __slots__ = (
        "left_keys", "right_idx", "residual", "outer", "left_schema",
        "output_schema", "width",
    )

    def __init__(self, join: Any):
        self.left_keys = join.left_keys
        self.right_idx = tuple(join.right.output_schema.index_of(k) for k in join.right_keys)
        self.residual = join.residual
        self.outer = join.outer
        self.left_schema = join.left.output_schema
        self.output_schema = join.output_schema
        self.width = len(join.right.output_schema)


#: Shapes by key (``_shape``), the oldest dropped first past MAX_SHAPES.
_SHAPES: Dict[Tuple[Any, ...], "_Shape"] = {}


def _canonical(expr: Optional[Expression], schema: Schema) -> str:
    """*expr* as text that tells apart every two expressions that compute
    differently over *schema*: its tree, each column as its position and
    each literal with its type (``1`` is not ``1.0``)."""
    if expr is None:
        return ""
    if isinstance(expr, ColumnRef):
        return f"#{schema.index_of(expr.name)}"
    if isinstance(expr, Literal):
        return f"{type(expr.value).__name__}:{expr.value!r}"
    parts = []
    for value in vars(expr).values():
        if isinstance(value, Expression):
            parts.append(_canonical(value, schema))
        elif isinstance(value, tuple):
            parts.append(repr([f"{type(v).__name__}:{v!r}" for v in value]))
        else:
            parts.append(repr(value))
    return f"{type(expr).__name__}({', '.join(parts)})"


def _shape(
    joins: Sequence[Any],
    leaf: Any,
    group_by: Optional[Sequence[Expression]],
    calls: Sequence[AggregateCall],
) -> "_Shape":
    """The shape of a spine, shared by every plan with an equal one: the
    leaf's width, per level the key positions, build width, outer flag
    and residual, and the aggregate's group keys and calls, all over
    column positions (``_canonical``)."""
    schema = joins[-1].output_schema if joins else leaf.output_schema
    key = (
        len(leaf.output_schema),
        tuple(
            (
                tuple(j.left.output_schema.index_of(k) for k in j.left_keys),
                tuple(j.right.output_schema.index_of(k) for k in j.right_keys),
                len(j.right.output_schema),
                j.outer,
                _canonical(j.residual, j.output_schema),
            )
            for j in joins
        ),
        None
        if group_by is None
        else (
            tuple(_canonical(e, schema) for e in group_by),
            tuple(_canonical(c, schema) for c in calls),
        ),
    )
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _kept(_SHAPES, key, _Shape(joins, leaf, group_by, calls))
    return shape


class Spine:
    """One plan node's pipeline: the build subtrees, the leaf, and the
    shape whose generated code runs them.

    *joins* runs innermost first and *leaf* is the innermost join's left
    child.  The aggregate sink takes the aggregate's *group_by* and its
    aggregate *calls*; without them the spine is the batch sink of its
    outermost join, which the profiler sees as itself.  Only nodes below
    the plan node that holds the spine are kept: a node must not reach
    itself through its own cached parts.
    """

    def __init__(
        self,
        joins: Sequence[Any],
        leaf: Any,
        group_by: Optional[Sequence[Expression]] = None,
        calls: Sequence[AggregateCall] = (),
    ):
        self.shape = _shape(joins, leaf, group_by, calls)
        self.leaf = leaf
        self.rights = [join.right for join in joins]
        outermost = len(joins) - 1 if group_by is None else len(joins)
        #: the node each fused level reports to the profiler as
        self.fused = [join if level < outermost else None for level, join in enumerate(joins)]

    def _open(self, ctx: Any) -> Tuple[List[_Build], List[Any]]:
        """Build every level, outermost first (the order the join streams
        opened in), opening a fused level's profile window before its
        build."""
        levels = self.shape.joins
        builds: List[Any] = [None] * len(levels)
        fused: List[Any] = [None] * len(levels)
        profiler = ctx.profiler
        for level in reversed(range(len(levels))):
            node = self.fused[level]
            if profiler is not NULL_PROFILER and node is not None:
                fused[level] = profiler.fused(node, ctx.meter)
            builds[level] = _built(self.rights[level], levels[level], ctx)
        return builds, fused

    def _bind(
        self, builds: List[_Build], fused: List[Any], emit: Any = None
    ) -> Tuple[Callable[..., Any], Tuple[Any, ...]]:
        """The generated function for this execution's variant, and its
        parameter values."""
        fn, specs = self.shape.variant(
            tuple([b.unique for b in builds]), tuple([f is not None for f in fused])
        )
        params = []
        for spec in specs:
            kind = spec[0]
            if kind == "static":
                params.append(spec[1])
            elif kind == "get":
                params.append(builds[spec[1]].get)
            elif kind == "column":
                params.append(builds[spec[1]].values(spec[2]))
            elif kind == "fused":
                params.append(fused[spec[1]].emit)
            elif kind == "groups":
                params.append([-1] * builds[spec[1]].span)
            else:
                params.append(emit)
        return fn, tuple(params)

    @staticmethod
    def _charge(meter: Any, counts: Sequence[int], level: int) -> None:
        # counts: p0, then (examined, rows out) per level; a level's
        # probed rows are the previous level's rows out.
        meter.cpu_ms += counts[2 * level] * HASH_PROBE_COST
        meter.cpu_ms += counts[2 * level + 1] * CPU_TUPLE_COST

    def aggregate_groups(self, ctx: Any) -> Tuple[List[Any], List[List[Any]], int]:
        """Run the aggregate sink: (group keys in first-seen order, one
        result column per aggregate call, rows the aggregate consumed)."""
        builds, fused = self._open(ctx)
        fn, params = self._bind(builds, fused)
        # A fused level reports one batch per leaf window that gave it a row.
        leaf = self.leaf.rows_whole(ctx, any(w is not None for w in fused))
        keys, sizes, accs, counts = fn(leaf, params)
        for level, window in enumerate(fused):
            self._charge(ctx.meter, counts, level)
            if window is not None:
                window.finish()
        return keys, self.shape.accumulators.results(sizes, accs), counts[-1]

    def joined_batches(self, ctx: Any) -> Iterator[ColumnBatch]:
        """Run the batch sink: the outermost join's output batches."""
        meter = ctx.meter
        builds, fused = self._open(ctx)
        providers = [
            [partial(build.values, j) for j in range(join.width)]
            for build, join in zip(builds, self.shape.joins)
        ]
        fn, params = self._bind(builds, fused, partial(_joined, providers))
        leaf = self.leaf.rows_columnar(ctx)
        counts: List[int] = []
        stream = fn(leaf, params, counts)
        done = False
        try:
            yield from stream
            done = True
        finally:
            stream.close()
            # An abandoned join stream released its input before its own
            # charges (a loop's iterator goes before its ``finally``), so
            # the leaf charges first and each fused window opened before
            # it; either way the levels then charge innermost first.
            mark = None
            if not done:
                mark = meter.total_ms
                close = getattr(leaf, "close", None)
                if close is not None:
                    close()
            for level, window in enumerate(fused):
                self._charge(meter, counts, level)
                if window is not None:
                    window.finish(mark)


class _Shape:
    """What the generated code of one spine shape depends on, and every
    variant generated for it: by the levels' build kinds (unique or
    bucketed) and by which levels report to the profiler."""

    def __init__(
        self,
        joins: Sequence[Any],
        leaf: Any,
        group_by: Optional[Sequence[Expression]],
        calls: Sequence[AggregateCall],
    ):
        self.batch_sink = group_by is None
        self.joins = [_Level(join) for join in joins]
        self.leaf_width = len(leaf.output_schema)
        self.widths = [j.width for j in self.joins]
        #: combined position of each level's first build column
        self.offsets = [len(j.left_schema) for j in self.joins]
        #: the aggregate sink's input schema: every level's columns, in order
        self.schema = joins[-1].output_schema if joins else leaf.output_schema
        self.group_by = tuple(group_by or ())
        self.accumulators = _Accumulators(calls)
        # The combined positions the loop reads per row.  Level 0's keys
        # are probed in C (``map`` over the key columns) as the loop
        # advances; group keys that are build columns of one level are
        # read only when a build row first reaches the sink.
        reads: Set[int] = set()
        for level, join in enumerate(self.joins):
            if level:
                reads.update(join.left_schema.index_of(k) for k in join.left_keys)
            if join.residual is not None:
                reads.update(_positions(join.residual, join.output_schema).values())
        for arg, _folds in self.accumulators.args.values():
            reads.update(_positions(arg, self.schema).values())
        keys = [_positions(e, self.schema) for e in self.group_by]
        #: the level whose build row decides the group, if one does
        self.group_level: Optional[int] = None
        if keys and all(isinstance(e, ColumnRef) for e in self.group_by):
            spots = {p for k in keys for p in k.values()}
            for level, (offset, width) in enumerate(zip(self.offsets, self.widths)):
                if all(offset <= p < offset + width for p in spots):
                    self.group_level = level
        if self.group_level is None:
            for k in keys:
                reads.update(k.values())
        self.reads = reads
        self._variants: Dict[Tuple[Any, ...], Tuple[Callable[..., Any], List[Any]]] = {}

    def variant(
        self, uniques: Tuple[bool, ...], profiled: Tuple[bool, ...]
    ) -> Tuple[Callable[..., Any], List[Any]]:
        """The generated function of one variant and its parameter specs."""
        variant = self._variants.get((uniques, profiled))
        if variant is None:
            src = self._write(uniques, profiled)
            fn = _function(src.text(), "spine")
            variant = self._variants[uniques, profiled] = (fn, list(src.params.values()))
        return variant

    # -- generation ----------------------------------------------------------

    def _write(self, uniques: Tuple[bool, ...], profiled: Tuple[bool, ...]) -> _Source:
        """The source of one variant — the levels' build kinds and which
        levels report to the profiler — and its parameter specs."""
        src = _Source()
        batch_sink = self.batch_sink
        src.line(0, f"def spine(batches, P{', C' if batch_sink else ''}):")
        src.line(1, "")  # the parameter unpacking, written last
        if batch_sink and len(self.joins) == 1 and uniques[0]:
            self._write_vectorised(src)
        else:
            self._write_rows(src, uniques, profiled)
        return src

    def _write_vectorised(self, src: _Source) -> None:
        """A lone unique level without a residual, batch sink: the whole
        batch's probe is one ``map`` in C; ``count(0)`` decides whether
        anything needs filtering, and ``compress`` / ``filter`` keep the
        hits of an inner join."""
        join = self.joins[0]
        left = join.left_schema
        keys = [f"batch.column_values({left.index_of(k)})" for k in join.left_keys]
        key = keys[0] if len(keys) == 1 else f"zip({', '.join(keys)})"
        get = src.param("G", ("get", 0))
        emit = src.param("EMIT", ("emit",))
        src.line(1, "p0 = x0 = 0")
        src.line(1, "try:")
        src.line(2, "for batch in batches:")
        src.line(3, "n = len(batch)")
        src.line(3, "p0 += n")
        src.line(3, "psel = batch.selected()")
        src.line(3, f"m = list(map({get}, {key}, repeat(0)))")
        src.line(3, "hits = n - m.count(0)")
        src.line(3, "x0 += hits")
        if join.outer:
            # A miss gathers the NULL row: every probe row is emitted.
            src.line(3, f"yield {emit}(batch, psel, (m,))")
        else:
            src.line(3, "if hits == n:")
            src.line(4, f"yield {emit}(batch, psel, (m,))")
            src.line(3, "elif hits:")
            src.line(4, "keep = list(compress(psel, m))")
            src.line(4, f"yield {emit}(batch, keep, (list(filter(None, m)),))")
        src.line(1, "finally:")
        src.line(2, "C[:] = (p0, x0, x0)")

    def _write_rows(
        self, src: _Source, uniques: Tuple[bool, ...], profiled: Tuple[bool, ...]
    ) -> None:
        batch_sink = self.batch_sink
        levels = len(self.joins)
        # A level's rows out: its own counter, or its examined count for
        # an inner unique level without a residual (one row per hit).
        outputs = [
            f"x{level}"
            if uniques[level] and not join.outer and join.residual is None
            else f"o{level}"
            for level, join in enumerate(self.joins)
        ]
        counters = ["p0"]
        for level in range(levels):
            counters.extend((f"x{level}", outputs[level]))
        zeros = ["p0"] + [f"{c}{level}" for level in range(levels) for c in "xo"]
        src.line(1, " = ".join(zeros) + " = 0")
        if batch_sink:
            src.line(1, "try:")
            depth = 2
        else:
            self._write_groups(src)
            depth = 1
        src.line(depth, "for batch in batches:")
        src.line(depth + 1, "p0 += len(batch)")
        watched = [level for level in range(levels) if profiled[level]]
        for level in watched:
            src.line(depth + 1, f"s{level} = {outputs[level]}")
        if batch_sink:
            src.line(depth + 1, "gl = []")
            src.line(depth + 1, "GL = gl.append")
            for level in range(levels):
                src.line(depth + 1, f"h{level} = []")
                src.line(depth + 1, f"H{level} = h{level}.append")
        leaf_width = self.leaf_width
        leaf_reads = sorted(p for p in self.reads if p < leaf_width)
        names = (["pos"] if batch_sink else []) + [f"c{p}" for p in leaf_reads]
        lists = (["batch.selected()"] if batch_sink else []) + [
            f"batch.column_values({p})" for p in leaf_reads
        ]
        hits_only = False
        if levels:
            # Level 0's probe runs in C over the key columns; an inner
            # level 0 loops over its hits only (``compress``), counting a
            # unique level's hits with ``count(0)``.
            join = self.joins[0]
            keys = [
                f"batch.column_values({join.left_schema.index_of(k)})"
                for k in join.left_keys
            ]
            key = keys[0] if len(keys) == 1 else f"zip({', '.join(keys)})"
            get = src.param("G", ("get", 0))
            miss = "0" if uniques[0] else ("()" if join.residual is not None else "None")
            probe = f"map({get}, {key}, repeat({miss}))"
            names.insert(len(names) - len(leaf_reads), "r0" if uniques[0] else "R0")
            hits_only = not join.outer
            if hits_only:
                src.line(depth + 1, f"m = list({probe})")
                if outputs[0] == "x0":
                    src.line(depth + 1, "x0 += len(m) - m.count(0)")
                probe = "m"
            lists.insert(len(lists) - len(leaf_reads), probe)
        rows = lists[0] if len(lists) == 1 else f"zip({', '.join(lists)})"
        if not lists:
            rows = "repeat(None, len(batch))"
        if hits_only:
            rows = f"compress({rows}, m)"
        if self._histogram():
            # COUNT(*) alone, grouped by leaf columns: counted in C.
            keys = [
                f"batch.column_values({self.schema.index_of(e.name)})"
                for e in self.group_by
            ]
            key = keys[0] if len(keys) == 1 else f"zip({', '.join(keys)})"
            src.line(depth + 1, f"CN.update({key})")
        elif levels or batch_sink or self.accumulators.args or self.group_by:
            src.line(depth + 1, f"for {', '.join(names) or '_'} in {rows}:")
            row = depth + 2
            for level in range(levels):
                row = self._write_level(src, row, level, uniques[level])
            if batch_sink:
                src.line(row, "GL(pos)")
                for level in range(levels):
                    src.line(row, f"H{level}(r{level})")
            else:
                self._write_fold(src, row)
        for level in watched:
            fused = src.param("F", ("fused", level))
            src.line(depth + 1, f"if {outputs[level]} != s{level}:")
            src.line(depth + 2, f"{fused}({outputs[level]} - s{level})")
        if batch_sink:
            emit = src.param("EMIT", ("emit",))
            gathers = "".join(f"h{level}, " for level in range(levels))
            src.line(depth + 1, "if gl:")
            src.line(depth + 2, f"yield {emit}(batch, gl, ({gathers}))")
            src.line(1, "finally:")
            src.line(2, f"C[:] = ({', '.join(counters)},)")
        else:
            consumed = outputs[-1] if levels else "p0"
            if not self.group_by:
                # The one group's COUNT(*) is every row the sink took.
                src.line(1, f"N[0] = {consumed}")
            elif self._histogram():
                src.line(1, "GK = list(CN)")
                src.line(1, "N = list(CN.values())")
            accs = "".join(f"A{n}, " for n in range(len(self.accumulators.order)))
            src.line(1, f"return GK, N, ({accs}), ({', '.join(counters)}, {consumed})")

    def _histogram(self) -> bool:
        """COUNT(*) alone over the leaf, grouped by leaf columns."""
        return (
            not self.joins
            and not self.batch_sink
            and not self.accumulators.args
            and bool(self.group_by)
            and all(isinstance(e, ColumnRef) for e in self.group_by)
        )

    def _write_level(self, src: _Source, depth: int, level: int, unique: bool) -> int:
        """One level's probe; returns the depth its output rows run at."""
        join = self.joins[level]
        keys = [join.left_schema.index_of(k) for k in join.left_keys]
        key = f"c{keys[0]}" if len(keys) == 1 else "(" + "".join(f"c{p}, " for p in keys) + ")"
        get = src.param("G", ("get", level)) if level else ""
        r, bucket, x, o = f"r{level}", f"R{level}", f"x{level}", f"o{level}"
        if join.residual is None and unique:
            if level:
                src.line(depth, f"{r} = {get}({key}, 0)")
            if join.outer:
                src.line(depth, f"if {r}:")
                src.line(depth + 1, f"{x} += 1")
                src.line(depth, f"{o} += 1")
            elif level:
                src.line(depth, f"if not {r}:")
                src.line(depth + 1, "continue")
                src.line(depth, f"{x} += 1")
            self._write_build_columns(src, depth, level)
            return depth
        if join.residual is None:
            if level:
                src.line(depth, f"{bucket} = {get}({key})")
            if join.outer:
                src.line(depth, f"if {bucket} is None:")
                src.line(depth + 1, f"{bucket} = PAD")
                src.line(depth, "else:")
                src.line(depth + 1, f"{x} += len({bucket})")
            else:
                if level:
                    src.line(depth, f"if {bucket} is None:")
                    src.line(depth + 1, "continue")
                src.line(depth, f"{x} += len({bucket})")
            src.line(depth, f"for {r} in {bucket}:")
            src.line(depth + 1, f"{o} += 1")
            self._write_build_columns(src, depth + 1, level)
            return depth + 1
        # A residual: candidates in bucket order, then (outer) the NULL
        # row, taken only when no candidate passed.
        if level:
            src.line(depth, f"{bucket} = {get}({key}, ())")
        src.line(depth, f"{x} += len({bucket})")
        if join.outer:
            src.line(depth, f"m{level} = False")
            src.line(depth, f"for {r} in (*{bucket}, 0):")
            self._write_build_columns(src, depth + 1, level)
            src.line(depth + 1, f"if {r}:")
            test = _write_expression(src, depth + 2, join.residual, join.output_schema)
            src.line(depth + 2, f"if {test} is not True:")
            src.line(depth + 3, "continue")
            src.line(depth + 2, f"m{level} = True")
            src.line(depth + 1, f"elif m{level}:")
            src.line(depth + 2, "break")
        else:
            src.line(depth, f"for {r} in {bucket}:")
            self._write_build_columns(src, depth + 1, level)
            test = _write_expression(src, depth + 1, join.residual, join.output_schema)
            src.line(depth + 1, f"if {test} is not True:")
            src.line(depth + 2, "continue")
        src.line(depth + 1, f"{o} += 1")
        return depth + 1

    def _write_build_columns(self, src: _Source, depth: int, level: int) -> None:
        offset = self.offsets[level]
        for p in sorted(self.reads):
            if offset <= p < offset + self.widths[level]:
                column = src.param("B", ("column", level, p - offset))
                src.line(depth, f"c{p} = {column}[r{level}]")

    def _write_groups(self, src: _Source) -> None:
        """The aggregate sink's group table and per-group lists."""
        if self._histogram():
            src.line(1, "CN = Counter()")
        src.line(1, "GI = {}")
        src.line(1, "GG = GI.get")
        src.line(1, "GK = []")
        src.line(1, "N = []")
        for name, _init in self.accumulators.lists():
            src.line(1, f"{name} = []")
        if not self.group_by:
            # The one group of every row, there when no row is.
            src.line(1, "GK.append(())")
            self._write_new_group(src, 1)

    def _write_new_group(self, src: _Source, depth: int) -> None:
        src.line(depth, "N.append(0)")
        for name, init in self.accumulators.lists():
            src.line(depth, f"{name}.append({init})")

    def _write_fold(self, src: _Source, depth: int) -> None:
        """The aggregate sink's per-row statements."""
        level = self.group_level
        at = depth
        if level is not None:
            # The group of a build row, looked up once per build row.
            cache = src.param("GR", ("groups", level))
            src.line(depth, f"g = {cache}[r{level}]")
            src.line(depth, "if g < 0:")
            at = depth + 1
            offset = self.offsets[level]
            for p in sorted({self.schema.index_of(e.name) for e in self.group_by}):
                column = src.param("B", ("column", level, p - offset))
                src.line(at, f"c{p} = {column}[r{level}]")
        keys = [_write_expression(src, at, e, self.schema) for e in self.group_by]
        if keys:
            key = keys[0] if len(keys) == 1 else "(" + "".join(f"{k}, " for k in keys) + ")"
            src.line(at, f"g = GG({key})")
            src.line(at, "if g is None:")
            src.line(at + 1, f"g = GI[{key}] = len(GK)")
            src.line(at + 1, f"GK.append({key})")
            self._write_new_group(src, at + 1)
            if level is not None:
                src.line(at, f"{cache}[r{level}] = g")
        else:
            src.line(depth, "g = 0")
        if self.accumulators.count_star and self.group_by:
            src.line(depth, "N[g] += 1")
        order = self.accumulators.order
        for a, (arg, folds) in enumerate(self.accumulators.args.values()):
            value = _write_expression(src, depth, arg, self.schema)
            src.line(depth, f"if {value} is not None:")
            for distinct in (False, True):
                kinds = [fold for fold in _FOLDS if (distinct, fold) in folds]
                if not kinds:
                    continue
                at = depth + 1
                if distinct:
                    src.line(at, f"d = D{a}[g]")
                    src.line(at, f"if {value} not in d:")
                    src.line(at + 1, f"d.add({value})")
                    at += 1
                for fold in kinds:
                    acc = f"A{order.index((a, distinct, fold))}"
                    if fold == "count":
                        src.line(at, f"{acc}[g] += 1")
                    elif fold == "sum":
                        # Seeded with the first value: ``0 + v`` would
                        # turn -0.0 into 0.0.
                        src.line(at, f"t = {acc}[g]")
                        src.line(at, f"{acc}[g] = {value} if t is None else t + {value}")
                    else:
                        # The first extremum: a later value replaces it
                        # only by comparing strictly beyond it.
                        op = "<" if fold == "min" else ">"
                        src.line(at, f"t = {acc}[g]")
                        src.line(at, f"if t is None or {value} {op} t:")
                        src.line(at + 1, f"{acc}[g] = {value}")
