"""Bit-equality oracle for the join DP and its estimator-scoped memo.

``Optimizer.optimize`` costs every plan node once per ``CostEstimator``
and does its bookkeeping once per split.  Neither may move a float or
reorder a candidate, so two references are compared with ``==`` on
``PlanCost`` (exact floats):

* a fresh estimator per plan — what ``Database.estimate_plan`` builds —
  against the cost each returned candidate carries, for every fragment
  text the federation sends its servers, on both topologies;
* :class:`ReferenceOptimizer`, the enumerator as it was before the memo
  (every candidate costed from the leaves, one estimator per formula
  evaluation, per-pair bookkeeping, dedupe over the whole subset),
  against the optimizer on generated join graphs.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import build_federation, build_replica_federation
from repro.sqlengine import (
    Column,
    ColumnType,
    Schema,
    SqlError,
    plan_sql,
)
from repro.sqlengine.catalog import Catalog, ColumnStats, TableDef, TableStats
from repro.sqlengine import optimizer as optimizer_module
from repro.sqlengine.cost import (
    PlanCost,
    ServerProfile,
    StatsContext,
    equijoin_selectivity,
    estimate_selectivity,
)
from repro.sqlengine.database import Database
from repro.sqlengine.expressions import combine_conjuncts, conjuncts, is_equijoin_conjunct
from repro.sqlengine.logical import QueryBlock, bind
from repro.sqlengine.optimizer import (
    Optimizer,
    _chain_equi_keys,
    _splits,
    finish_plan,
)
from repro.sqlengine.parser import parse
from repro.sqlengine.physical import (
    CostEstimator,
    HashJoin,
    NestedLoopJoin,
    PhysicalPlan,
    Selectivities,
    SeqScan,
    stats_context_for_plan,
)
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES

Priced = Tuple[PhysicalPlan, PlanCost]

OTHER_PROFILE = ServerProfile("loaded", cpu_speed=0.37, io_speed=1.91)


# ---------------------------------------------------------------------------
# (a) every fragment text x every server, both topologies
# ---------------------------------------------------------------------------


def _fragment_texts(deployment, monkeypatch) -> List[str]:
    """Every SQL text the federation explains at a server for QT1-QT5."""
    texts: List[str] = []
    explain = Database.explain

    def spy(self, sql):
        if sql not in texts:
            texts.append(sql)
        return explain(self, sql)

    with monkeypatch.context() as patch:
        patch.setattr(Database, "explain", spy)
        for template in EXTENDED_QUERY_TYPES:
            deployment.integrator.submit(template.instance(0).sql)
    return texts


@pytest.mark.parametrize(
    "build", [build_federation, build_replica_federation], ids=lambda b: b.__name__
)
def test_candidate_costs_equal_a_fresh_costing(build, monkeypatch):
    deployment = build(scale=TEST_SCALE)
    texts = _fragment_texts(deployment, monkeypatch)
    assert len(texts) >= len(EXTENDED_QUERY_TYPES)
    checked = 0
    for server in deployment.servers.values():
        db = server.database
        for sql in texts:
            try:
                candidates = db.explain(sql)
            except SqlError:
                continue  # this server does not host the fragment's tables
            # The nodes now sit in the statement cache, costed once under
            # db.profile; nothing of that costing may stick to them.
            assert [c.plan for c in db.explain(sql)] == [c.plan for c in candidates]
            fresh = {
                c.signature: c.plan
                for c in plan_sql(sql, db.catalog, db.profile)
            }
            for candidate in candidates:
                plan = candidate.plan
                assert candidate.cost == db.estimate_plan(plan)
                requoted = db.estimate_plan(plan, profile=OTHER_PROFILE)
                assert requoted != candidate.cost
                never_costed = fresh[candidate.signature]
                assert never_costed is not plan
                assert requoted == never_costed.estimate_cost(
                    CostEstimator(
                        OTHER_PROFILE,
                        stats_context_for_plan(never_costed),
                    )
                )
                checked += 1
    assert checked >= 3 * len(texts)


# ---------------------------------------------------------------------------
# (b) the reference enumerator
# ---------------------------------------------------------------------------


class ReferenceOptimizer:
    """``Optimizer`` as it was before costs were memoised: the same plan
    space in the same order, every candidate costed from its leaves,
    nothing shared between the pairs of a split, every signature of a
    subset rendered before it is pruned."""

    def __init__(self, profile: ServerProfile):
        self.profile = profile
        self.keep = optimizer_module.KEEP_ALTERNATIVES

    def optimize(self, block: QueryBlock) -> List[Priced]:
        self.stats = {b: r.table.stats for b, r in block.relations.items()}
        if block.fixed_joins:
            joined = self._fixed_chain_plans(block)
        else:
            joined = self._enumerate_joins(block)
        finished: List[Priced] = []
        seen = set()
        for plan, _ in joined:
            plan = finish_plan(plan, block)
            if plan.signature() in seen:
                continue
            seen.add(plan.signature())
            finished.append(self._priced(plan))
        finished.sort(key=lambda c: c[1].total)
        return finished[: self.keep]

    def _priced(self, plan: PhysicalPlan) -> Priced:
        return plan, self._cost(plan)

    def _cost(self, plan: PhysicalPlan) -> PlanCost:
        """No memo of any kind: the recursion is spelled out here and
        every formula is evaluated by an estimator that has seen nothing,
        and that takes an inner join's rows from :meth:`_rows`."""
        children = [self._cost(child) for child in plan.children()]
        stats = StatsContext(self.stats)
        estimator = CostEstimator(self.profile, stats)
        estimator.selectivities = _SpelledOutRows(stats, self)
        return plan._cost(estimator, *children)

    def _rows(self, join: PhysicalPlan) -> float:
        """An inner join's rows spelled out: the rows of each relation
        under its inner joins, in binding order, then each join
        conjunct's selectivity, in the order of its columns or text."""
        stats = StatsContext(self.stats)
        relations, parts, nodes = [], [], [join]
        while nodes:
            node = nodes.pop()
            if isinstance(node, HashJoin) and not node.outer:
                parts += list(zip(node.left_keys, node.right_keys))
                parts += conjuncts(node.residual)
            elif isinstance(node, NestedLoopJoin) and not node.outer:
                parts += conjuncts(node.condition)
            else:
                relations.append(node)
                continue
            nodes += node.children()
        factors = []
        for part in parts:
            if isinstance(part, tuple) or is_equijoin_conjunct(part):
                if not isinstance(part, tuple):
                    part = (part.left.name, part.right.name)
                a, b = sorted(part)
                selectivity = equijoin_selectivity(stats.column(a), stats.column(b))
                factors.append(((a, b), selectivity))
            else:
                factors.append(((part.sql(),), estimate_selectivity(part, stats)))
        rows = 1.0
        for relation in sorted(relations, key=lambda r: r.output_schema.columns[0].table):
            rows *= self._cost(relation).rows
        for _, selectivity in sorted(factors):
            rows *= selectivity
        return rows

    def _access_paths(self, relation) -> List[Priced]:
        return [
            self._priced(
                SeqScan(relation.table, relation.binding, relation.predicate)
            )
        ]

    def _enumerate_joins(self, block: QueryBlock) -> List[Priced]:
        bindings = tuple(block.relations)
        best: Dict[FrozenSet[str], List[Priced]] = {
            frozenset([b]): self._access_paths(block.relations[b])
            for b in bindings
        }
        for size in range(2, len(bindings) + 1):
            for subset in itertools.combinations(bindings, size):
                subset_key = frozenset(subset)
                candidates: List[Priced] = []
                for left_key, right_key in _splits(subset_key):
                    if left_key not in best or right_key not in best:
                        continue
                    edges = [
                        e
                        for e in block.join_edges
                        if e.connects(left_key, right_key)
                    ]
                    candidates.extend(
                        self._join_pair(best[left_key], best[right_key], edges)
                    )
                if not candidates:
                    continue
                candidates.sort(key=lambda c: c[1].total)
                best[subset_key] = _dedupe(candidates)[: self.keep]
        return best[frozenset(bindings)]

    def _join_pair(
        self,
        left_alternatives: Sequence[Priced],
        right_alternatives: Sequence[Priced],
        edges,
    ) -> List[Priced]:
        results: List[Priced] = []
        for (left, _), (right, _) in itertools.product(
            left_alternatives, right_alternatives
        ):
            if edges:
                left_bound = frozenset(
                    c.table for c in left.output_schema.columns if c.table
                )
                left_keys, right_keys = [], []
                for edge in edges:
                    lk, rk = edge.oriented(left_bound)
                    left_keys.append(lk)
                    right_keys.append(rk)
                results.append(
                    self._priced(HashJoin(left, right, left_keys, right_keys))
                )
                condition = combine_conjuncts([e.expression() for e in edges])
                results.append(
                    self._priced(NestedLoopJoin(left, right, condition))
                )
            else:
                results.append(self._priced(NestedLoopJoin(left, right, None)))
        return results

    def _fixed_chain_plans(self, block: QueryBlock) -> List[Priced]:
        candidates: List[Priced] = []
        for prefer_hash in (True, False):
            root = block.relations[block.fixed_join_root]
            plan: PhysicalPlan = SeqScan(root.table, root.binding, None)
            bound = {root.binding}
            for step in block.fixed_joins:
                relation = block.relations[step.binding]
                right = SeqScan(relation.table, relation.binding, None)
                plan = self._fixed_join(
                    plan, right, step, frozenset(bound), prefer_hash
                )
                bound.add(step.binding)
            candidates.append(self._priced(plan))
        candidates.sort(key=lambda c: c[1].total)
        return _dedupe(candidates)

    @staticmethod
    def _fixed_join(left, right, step, left_bindings, prefer_hash):
        left_keys, right_keys, residual = [], [], []
        for part in conjuncts(step.condition):
            keys = _chain_equi_keys(part, left_bindings, step.binding)
            if keys is not None and prefer_hash:
                left_keys.append(keys[0])
                right_keys.append(keys[1])
            else:
                residual.append(part)
        if left_keys:
            return HashJoin(
                left,
                right,
                left_keys,
                right_keys,
                residual=combine_conjuncts(residual),
                outer=step.outer,
            )
        return NestedLoopJoin(left, right, step.condition, outer=step.outer)


class _SpelledOutRows(Selectivities):
    """Selectivities whose inner-join rows are the reference's own."""

    __slots__ = ("reference",)

    def __init__(self, stats: StatsContext, reference: ReferenceOptimizer):
        super().__init__(stats)
        self.reference = reference

    def rows(self, join: PhysicalPlan, estimator: CostEstimator) -> float:
        return self.reference._rows(join)


def _dedupe(candidates: Sequence[Priced]) -> List[Priced]:
    seen = set()
    unique = []
    for candidate in candidates:
        signature = candidate[0].signature()
        if signature in seen:
            continue
        seen.add(signature)
        unique.append(candidate)
    return unique


def _assert_matches_reference(sql: str, catalog: Catalog, profile):
    expected = [
        (plan.signature(), cost)
        for plan, cost in ReferenceOptimizer(profile).optimize(
            bind(parse(sql), catalog)
        )
    ]
    actual = [
        (c.signature, c.cost)
        for c in Optimizer(profile).optimize(bind(parse(sql), catalog))
    ]
    assert actual == expected


# -- generated join graphs ---------------------------------------------------

SHAPES = ("chain", "star", "clique", "disconnected")


def _edges(shape: str, n: int) -> List[Tuple[int, int]]:
    if shape == "star":
        return [(0, i) for i in range(1, n)]
    if shape == "clique":
        return list(itertools.combinations(range(n), 2))
    chain = [(i, i + 1) for i in range(n - 1)]
    # Disconnected: the chain with its middle link cut, so some subsets
    # have no plan and the full set is reached through a cross join.
    return chain if shape == "chain" else chain[: (n - 1) // 2] + chain[(n - 1) // 2 + 1 :]


@st.composite
def _tables(draw, n: int) -> Catalog:
    catalog = Catalog()
    for i in range(n):
        rows = draw(st.sampled_from([0, 1, 40, 800, 6_000, 200_000]))
        name = f"t{i}"
        stats = TableStats(
            row_count=rows,
            column_stats={
                "k": ColumnStats(
                    draw(st.sampled_from([1, 7, 33, 250, 4_000, 90_000])),
                    0,
                    max(rows, 1),
                ),
                "v": ColumnStats(
                    draw(st.sampled_from([2, 19, 640, 5_000])),
                    0.0,
                    draw(st.floats(1.0, 1e4)),
                ),
                # "s" is left without statistics: the defaults must agree too.
            },
        )
        catalog.register(
            TableDef(
                name,
                Schema(
                    (
                        Column("k", ColumnType.INT),
                        Column("v", ColumnType.FLOAT),
                        Column("s", ColumnType.STR),
                    )
                ),
                stats,
            )
        )
    return catalog


@st.composite
def join_problems(draw):
    n = draw(st.sampled_from([1, 2, 3, 3, 4, 4, 5, 5]))
    catalog = draw(_tables(n))
    where: List[str] = []
    for a, b in _edges(draw(st.sampled_from(SHAPES)), n):
        where.append(f"r{a}.k = r{b}.k")
        if draw(st.integers(0, 3)) == 0:
            where.append(f"r{a}.v = r{b}.v")  # a two-key join
    for i in range(n):
        local = draw(
            st.sampled_from(
                ["", "r{i}.k = 7", "r{i}.v > 50.5", "r{i}.k = 7 AND r{i}.v < 9",
                 "r{i}.s LIKE 'a%' OR r{i}.v = 2"]
            )
        )
        if local:
            where.append(local.format(i=i))
    if n > 1 and draw(st.booleans()):
        where.append(f"r0.v + r{n - 1}.v > 10")  # non-equi residual
    tail = draw(
        st.sampled_from(
            ["", " ORDER BY r0.v", " ORDER BY r0.k LIMIT 5", " LIMIT 0"]
        )
    )
    select = draw(
        st.sampled_from(
            ["SELECT *", "SELECT DISTINCT r0.k",
             "SELECT r0.k, COUNT(*) AS n, SUM(r0.v) AS total"]
        )
    )
    if select != "SELECT *":
        # A sort runs over the select list: r0.v is only in SELECT *.
        tail = tail.replace("r0.v", "r0.k")
    if "COUNT" in select:
        tail = " GROUP BY r0.k" + tail
    sql = (
        f"{select} FROM "
        + ", ".join(f"t{i} r{i}" for i in range(n))
        + (" WHERE " + " AND ".join(where) if where else "")
        + tail
    )
    profile = ServerProfile(
        "p", draw(st.floats(0.25, 4.0)), draw(st.floats(0.25, 4.0))
    )
    return sql, catalog, profile


@given(join_problems())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_enumeration_matches_reference(problem):
    _assert_matches_reference(*problem)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM t0 a LEFT JOIN t1 b ON a.k = b.k",
        "SELECT * FROM t0 a LEFT JOIN t1 b ON a.k = b.k AND b.v > 5 "
        "LEFT JOIN t2 c ON b.k = c.k WHERE a.v < 100",
        "SELECT a.k, COUNT(c.k) AS n FROM t0 a JOIN t1 b ON a.k = b.k "
        "LEFT JOIN t2 c ON a.k = c.k AND a.v = c.v AND b.v < c.v GROUP BY a.k",
        "SELECT * FROM t0 a LEFT JOIN t1 b ON a.v < b.v ORDER BY a.k LIMIT 3",
        # The hash chain is the cheaper join, the nested-loop chain the
        # cheaper finished plan: both must reach finish_plan at keep=1.
        "SELECT * FROM t2 a LEFT JOIN t1 b ON a.k = b.k LIMIT 2",
    ],
)
@pytest.mark.parametrize("keep", [1, 2, 3])
def test_outer_join_chains_match_reference(sql, keep, monkeypatch):
    # The DP is written for any number of alternatives kept; the chains
    # must reach finish_plan whole even when it keeps one.
    monkeypatch.setattr(optimizer_module, "KEEP_ALTERNATIVES", keep)
    catalog = Catalog()
    for i, rows in enumerate((5_000, 300, 40)):
        catalog.register(
            TableDef(
                f"t{i}",
                Schema((Column("k", ColumnType.INT), Column("v", ColumnType.FLOAT))),
                TableStats(
                    rows,
                    {
                        "k": ColumnStats(max(rows // 3, 1), 0, rows),
                        "v": ColumnStats(100, 0.0, 1_000.0),
                    },
                ),
            )
        )
    _assert_matches_reference(sql, catalog, OTHER_PROFILE)


@pytest.mark.parametrize("rows", [(0, 40, 800), (40, 800, 1), (6_000, 1, 40)])
@pytest.mark.parametrize(
    "where",
    [
        "r0.k = 7 AND r1.k = 7 AND r2.k = 7",
        "r0.k = 7 AND r0.v = 2 AND r1.k = 7 AND r1.v = 3 AND r2.v = 5",
        "r0.k = r1.k AND r1.v = r2.v AND r0.v = 3 AND r1.k = 7",
    ],
    ids=["cross", "cross-two-probes", "equi"],
)
@pytest.mark.parametrize("keep", [1, 2, 3])
def test_the_join_bound_waits_for_keep_totals(rows, where, keep, monkeypatch):
    # Three relations, so a side that is itself a join carries up to
    # ``keep`` alternatives, and cross joins have one method per pair: a
    # subset prices fewer than ``keep`` joins before pairs whose sides
    # already cost more than all of them come up.  They may be skipped
    # only once ``keep`` totals are known.
    monkeypatch.setattr(optimizer_module, "KEEP_ALTERNATIVES", keep)
    catalog = Catalog()
    for i, count in enumerate(rows):
        catalog.register(
            TableDef(
                f"t{i}",
                Schema((Column("k", ColumnType.INT), Column("v", ColumnType.FLOAT))),
                TableStats(
                    count,
                    {
                        "k": ColumnStats(max(count // 4, 1), 0, max(count, 1)),
                        "v": ColumnStats(97, 0.0, 500.0),
                    },
                ),
            )
        )
    _assert_matches_reference(
        f"SELECT * FROM t0 r0, t1 r1, t2 r2 WHERE {where}", catalog, OTHER_PROFILE
    )


def test_join_rows_fold_in_binding_order():
    # Three fractional base rows, whose product rounds differently in
    # another order: every candidate (and the reference) carries the
    # product in binding order, whichever split priced the set first.
    catalog = Catalog()
    for i, v_max in enumerate((300.0, 300.0, 777.0)):
        catalog.register(
            TableDef(
                f"t{i}",
                Schema((Column("k", ColumnType.INT), Column("v", ColumnType.FLOAT))),
                TableStats(
                    800,
                    {"k": ColumnStats(266, 0, 800), "v": ColumnStats(100, 0.0, v_max)},
                ),
            )
        )
    sql = (
        "SELECT * FROM t0 r0, t1 r1, t2 r2 WHERE r0.k = r1.k AND r1.k = r2.k"
        " AND r0.v > 50.5 AND r1.v > 50.5 AND r2.v > 50.5"
    )
    _assert_matches_reference(sql, catalog, OTHER_PROFILE)
    rows = {c.cost.rows for c in plan_sql(sql, catalog, OTHER_PROFILE)}
    assert len(rows) == 1
