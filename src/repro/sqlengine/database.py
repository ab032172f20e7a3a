"""Single-node database facade.

:class:`Database` glues together catalog, storage, optimizer and executor,
offering the interface a remote server exposes to the federation:

* ``explain(sql)`` — compile-time plan alternatives with estimated costs;
* ``run(sql)`` / ``run_plan(plan)`` — execute and meter actual work.

``explain`` is a pure function of the SQL text, the catalog and the
optimizer's profile, so its answers are kept in a statement cache (DB2's
dynamic statement cache) that is dropped the moment any of those moves.
Below those caches, the statement planned or offered last is shared by
every database: a server whose catalog content equals that statement's
takes its bound block, and its optimizer builds and prices its own plan
nodes over it (docs/plan_cache.md, "The shared entry").  The decomposer
parses and binds once per query shape (:func:`bind_shape`).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from math import inf
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import Catalog, TableDef
from .cost import ServerProfile, REFERENCE_PROFILE
from .executor import ExecutionResult, execute_plan
from .expressions import Expression, Literal, walk
from .logical import QueryBlock, _rebuild, bind
from .optimizer import Optimizer, PlanCandidate
from .parser import SelectStatement, fold_literals, literal_type, literal_value, parse
from .physical import PhysicalPlan
from .storage import StorageManager
from .types import Schema, SqlError

#: Statements whose plans a database keeps (LRU), like ``fed.PlanCache``.
STATEMENT_CACHE_SIZE = 128


class _Planned(NamedTuple):
    """A statement as bound against some catalog's *content*."""

    sql: str
    statement: SelectStatement
    content: Tuple[TableDef, ...]
    block: QueryBlock


#: The statement any database planned last, or the decomposer offered
#: last.  The meta-wrapper asks a fragment's candidate servers back to
#: back, so one entry lets servers with equal catalogs share one parse
#: and one bind, each optimizer planning the block under its own
#: profile.  It is process-wide because the servers are independent
#: databases; its key is exact, so no answer depends on what it holds.
_last_planned: Optional[_Planned] = None


def offer_bound(
    sql: str,
    statement: SelectStatement,
    content: Tuple[TableDef, ...],
    block: QueryBlock,
) -> None:
    """Make *block* the shared entry: *statement*, whose text is *sql*
    (``parse(sql) == statement``), bound over a catalog whose
    ``content()`` is *content*.  A statement-cache miss on *sql* over
    equal content then takes the block, one over other content binds
    *statement* without parsing *sql*."""
    global _last_planned
    _last_planned = _Planned(sql, statement, content, block)


#: Query shapes whose first parse and bind :func:`bind_shape` keeps (LRU).
SHAPE_CACHE_SIZE = 64


class _Shape(NamedTuple):
    """A text's parse and bind, the template of every text of its shape."""

    literals: Tuple[Optional[str], ...]  # each literal's text, None for a hole
    holes: Tuple[Tuple[int, Literal], ...]  # (position in literals, node)
    content: Tuple[TableDef, ...]
    statement: SelectStatement
    block: QueryBlock


#: (folded text, literal types) -> its shape, least recently used first.
_shapes: "OrderedDict[tuple, _Shape]" = OrderedDict()


def bind_shape(sql: str, catalog: Catalog) -> Tuple[SelectStatement, QueryBlock]:
    """``parse(sql)`` and its ``bind`` over *catalog*, as new objects: for
    a known shape, the template rebuilt along the paths to its *holes*,
    the WHERE and ON literals, which ``bind`` reads by type alone
    (docs/plan_cache.md, "One parse and one bind per shape")."""
    folded, literals = fold_literals(sql)
    tokens = [token for _, token in literals]
    key = (folded, tuple(map(literal_type, tokens)))
    content = catalog.content()
    shape = _shapes.get(key)
    if shape is not None and shape.content == content and all(
        fixed is None or fixed == token for fixed, token in zip(shape.literals, tokens)
    ):
        try:
            values = [literal_value(tokens[at]) for at, _ in shape.holes]
        except ValueError:  # too many digits: the parser raises it
            values = [inf]
        if inf not in values:  # an overflowing float: the parser raises it
            _shapes.move_to_end(key)
            new = {id(node): Literal(v, node.token) for (_, node), v in zip(shape.holes, values)}
            statement, block = shape.statement, shape.block
            return replace(
                statement,
                where=_swap(statement.where, new),
                joins=_swap_each(statement.joins, "condition", new),
            ), replace(
                block,
                relations=dict(
                    zip(block.relations, _swap_each(block.relations.values(), "predicate", new))
                ),
                residual=_swap(block.residual, new),
                fixed_joins=_swap_each(block.fixed_joins, "condition", new),
            )
    statement = parse(sql)
    block = bind(statement, catalog)
    holes = {
        node.token: node
        for condition in [statement.where] + [join.condition for join in statement.joins]
        if condition is not None
        for node in walk(condition)
        if isinstance(node, Literal) and node.token is not None
    }
    _shapes[key] = _Shape(
        tuple(None if index in holes else token for index, token in literals),
        tuple((at, holes[index]) for at, (index, _) in enumerate(literals) if index in holes),
        content,
        statement,
        block,
    )
    if len(_shapes) > SHAPE_CACHE_SIZE:
        _shapes.popitem(last=False)
    return statement, block


def _swap(expr: Optional[Expression], new: Dict[int, Expression]):
    """*expr* with the nodes *new* maps by id replaced, rebuilt along the
    paths to them (*new* records each, so shared subtrees stay shared)."""
    if expr is None:
        return None
    swapped = new.get(id(expr))
    if swapped is None:
        children = expr.children()
        rebuilt = [_swap(child, new) for child in children]
        changed = any(a is not b for a, b in zip(rebuilt, children))
        swapped = new[id(expr)] = _rebuild(expr, rebuilt) if changed else expr
    return swapped


def _swap_each(nodes: Iterable[Any], name: str, new: Dict[int, Expression]) -> tuple:
    """*nodes*, each with its expression field *name* swapped."""
    out = []
    for node in nodes:
        expr = getattr(node, name)
        swapped = _swap(expr, new)
        out.append(node if swapped is expr else replace(node, **{name: swapped}))
    return tuple(out)


class Database:
    """An embedded relational database instance."""

    def __init__(
        self,
        name: str = "db",
        profile: ServerProfile = REFERENCE_PROFILE,
        engine: Optional[str] = None,
    ):
        # One engine runs every plan; the parameter is kept solely
        # because benchmarks/e2e/answers.py (frozen by BENCHMARK.json)
        # passes ``engine="row"``.  Every accepted name means that engine.
        if engine not in (None, "columnar", "row"):
            raise SqlError(f"unknown execution engine {engine!r}")
        self.name = name
        self.profile = profile
        self.catalog = Catalog()
        self.storage = StorageManager(self.catalog)
        self.optimizer = Optimizer(profile)
        #: SQL text -> its plan candidates, least recently used first.
        self._statements: "OrderedDict[str, tuple]" = OrderedDict()
        #: (catalog, its version, optimizer profile) every cached
        #: statement was planned under.
        self._planned_under: Optional[tuple] = None
        #: ``catalog.content()`` under ``_planned_under``.
        self._content: Tuple[TableDef, ...] = ()
        self.statement_hits = 0
        self.statement_misses = 0

    # -- DDL / DML ---------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> None:
        self.storage.create_table(name, schema)

    def load_rows(self, table: str, rows: Iterable[Sequence[Any]]) -> int:
        return self.storage.load_rows(table, rows)

    def load_copy(self, table: str, source: "Database") -> int:
        """Load *table* as a copy of *source*'s (``StorageManager.load_copy``)."""
        return self.storage.load_copy(table, source.storage)

    def analyze(self, table: Optional[str] = None) -> None:
        self.storage.analyze(table)

    # -- compile time --------------------------------------------------------

    def explain(self, sql: str) -> List[PlanCandidate]:
        """Plan alternatives for *sql*, cheapest first (no execution).

        The list is the caller's; the candidates are shared and immutable.
        """
        catalog, optimizer = self.catalog, self.optimizer
        under = (catalog, catalog.version, optimizer.profile)
        if under != self._planned_under:
            self._statements.clear()
            self._planned_under = under
            self._content = catalog.content()
        candidates = self._statements.get(sql)
        if candidates is None:
            self.statement_misses += 1
            candidates = tuple(optimizer.optimize(self._bound(sql)))
            self._statements[sql] = candidates
            if len(self._statements) > STATEMENT_CACHE_SIZE:
                self._statements.popitem(last=False)
        else:
            self.statement_hits += 1
            self._statements.move_to_end(sql)
        return list(candidates)

    def _bound(self, sql: str) -> QueryBlock:
        """*sql* bound against this catalog — the block last planned or
        offered, by this database or anyone else, when it is the same
        text over equal catalog content, else a new one, parsed afresh
        unless the text is the last one's."""
        last = _last_planned
        if last is None or last.sql != sql:
            statement = parse(sql)
        elif last.content == self._content:
            # Later comparisons with the same entry are by identity.
            self._content = last.content
            return last.block
        else:
            statement = last.statement
        block = bind(statement, self.catalog)
        offer_bound(sql, statement, self._content, block)
        return block

    def statement_cache_stats(self) -> Dict[str, int]:
        """Statement-cache counters for dashboards/CLI output."""
        return {
            "entries": len(self._statements),
            "hits": self.statement_hits,
            "misses": self.statement_misses,
        }

    def estimate_plan(
        self, plan: PhysicalPlan, profile: Optional[ServerProfile] = None
    ):
        """Re-cost an existing plan with a fresh estimator, optionally
        under another profile: the reference the optimizer's memoised
        costs are held equal to (``test_optimizer_oracle.py``)."""
        from .physical import CostEstimator, stats_context_for_plan

        estimator = CostEstimator(
            profile=profile or self.profile,
            stats=stats_context_for_plan(plan),
        )
        return plan.estimate_cost(estimator)

    # -- run time ------------------------------------------------------------

    def run_plan(self, plan: PhysicalPlan) -> ExecutionResult:
        return execute_plan(plan, self.storage)

    def run(self, sql: str) -> ExecutionResult:
        """Optimize and execute *sql*, returning rows and metered work."""
        best = self.explain(sql)[0]
        return self.run_plan(best.plan)

    def run_dml(self, sql: str):
        """Execute an INSERT/UPDATE/DELETE statement."""
        from .dml import DmlError, execute_dml
        from .parser import SelectStatement, parse_statement

        statement = parse_statement(sql)
        if isinstance(statement, SelectStatement):
            raise DmlError("run_dml expects INSERT/UPDATE/DELETE; use run()")
        return execute_dml(statement, self.storage)

    # -- simulation ------------------------------------------------------------

    @classmethod
    def stats_only_copy(cls, source: "Database") -> "Database":
        """A copy carrying catalog (schemas, statistics) but no
        data — the paper's 'simulated catalog and virtual tables'.

        ``explain`` works identically to the source (the optimizer only
        reads the catalog); executing a plan fails, which is the point:
        the simulated federated system costs plans for data it does not
        hold.
        """
        clone = cls(name=f"{source.name}:simulated", profile=source.profile)
        clone.catalog = source.catalog.stats_only_clone()
        clone.storage = StorageManager(clone.catalog)
        clone.optimizer = source.optimizer
        return clone

    # -- introspection ---------------------------------------------------------

    def row_count(self, table: str) -> int:
        return len(self.storage.table(table))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tables = ", ".join(self.catalog.table_names())
        return f"<Database {self.name}: {tables}>"
