"""Cost-based plan enumeration.

The optimizer runs dynamic programming over relation subsets, keeping the
top-*k* cheapest alternatives per subset instead of only the single best.
Retaining alternatives is essential for the reproduction: the paper's
wrappers return *multiple* candidate plans per query fragment
(``QF1_p1``, ``QF1_p2``, ...) and QCC's load balancing rotates between
near-equal-cost plans.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import Catalog
from .cost import (
    PlanCost,
    REFERENCE_PROFILE,
    ServerProfile,
    StatsContext,
)
from .expressions import Expression, combine_conjuncts, conjuncts, is_equijoin_conjunct
from .logical import BoundRelation, QueryBlock, bind
from .parser import parse
from .physical import (
    CostEstimator,
    Distinct,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    NestedLoopJoin,
    PhysicalPlan,
    Project,
    SeqScan,
    Sort,
)
from .types import SqlError


class OptimizerError(SqlError):
    """Raised when no executable plan can be constructed."""


@dataclass(frozen=True)
class PlanCandidate:
    """A complete physical plan with its estimated cost.

    ``cost`` is ``None`` when the producing wrapper withholds estimation
    (file sources): an explicit sentinel, so a legitimate zero-cost plan
    over an empty table is never mistaken for "cost unknown".
    """

    plan: PhysicalPlan
    cost: Optional[PlanCost]

    @property
    def signature(self) -> str:
        return self.plan.signature()


#: Alternatives retained per DP subset and returned overall.
KEEP_ALTERNATIVES = 3


class _Split(NamedTuple):
    """A two-way partition of a relation subset, with what joining its
    sides needs: the equi-key lists (empty for a cross join) and the
    conjunction of the connecting edges (the nested-loop condition)."""

    left: FrozenSet[str]
    right: FrozenSet[str]
    left_keys: Tuple[str, ...]
    right_keys: Tuple[str, ...]
    condition: Optional[Expression]


class Optimizer:
    """Plans a bound :class:`QueryBlock` for one server profile."""

    def __init__(self, profile: ServerProfile = REFERENCE_PROFILE):
        self.profile = profile

    # -- public API ----------------------------------------------------

    def optimize(self, block: QueryBlock) -> List[PlanCandidate]:
        """Return the top-k complete plans, cheapest first."""
        estimator = CostEstimator(
            self.profile,
            StatsContext({b: r.table.stats for b, r in block.relations.items()}),
        )
        if block.fixed_joins:
            join_alternatives = self._fixed_chain_plans(block, estimator)
        else:
            join_alternatives = self._enumerate_joins(block, estimator)
        finished: List[PlanCandidate] = []
        seen_signatures = set()
        for candidate in join_alternatives:
            plan = finish_plan(candidate.plan, block)
            signature = plan.signature()
            if signature in seen_signatures:
                continue
            seen_signatures.add(signature)
            finished.append(
                PlanCandidate(plan=plan, cost=plan.estimate_cost(estimator))
            )
        finished.sort(key=lambda c: c.cost.total)
        if not finished:
            raise OptimizerError("no plan produced")
        return finished[:KEEP_ALTERNATIVES]

    # -- access paths ----------------------------------------------------

    def _access_paths(
        self, relation: BoundRelation, estimator: CostEstimator
    ) -> List[PlanCandidate]:
        """The sequential scan: a relation's one access path."""
        scan = _scan(relation)
        return [PlanCandidate(scan, scan.estimate_cost(estimator))]

    # -- join enumeration -------------------------------------------------

    def _enumerate_joins(
        self, block: QueryBlock, estimator: CostEstimator
    ) -> List[PlanCandidate]:
        """The join DP: every subset of two or more relations, smallest
        first, from the alternatives kept for its splits' sides."""
        bindings = tuple(block.relations)
        best: Dict[FrozenSet[str], List[PlanCandidate]] = {}
        for binding in bindings:
            best[frozenset([binding])] = self._access_paths(
                block.relations[binding], estimator
            )
        subsets = (
            frozenset(subset)
            for size in range(2, len(bindings) + 1)
            for subset in itertools.combinations(bindings, size)
        )
        for subset in subsets:
            candidates: List[PlanCandidate] = []
            # The smallest totals priced for the subset so far, ascending,
            # at most ``KEEP_ALTERNATIVES`` of them.
            lowest: List[float] = []
            for split in _subset_splits(subset, block):
                if split.left not in best or split.right not in best:
                    continue
                self._join_split(
                    best[split.left],
                    best[split.right],
                    split,
                    estimator,
                    candidates,
                    lowest,
                )
            if not candidates:
                continue
            candidates.sort(key=lambda c: c.cost.total)
            best[subset] = _dedupe(candidates, KEEP_ALTERNATIVES)
        full = frozenset(bindings)
        if full not in best:
            raise OptimizerError(
                "query's join graph is disconnected and cross joins "
                "produced no plan"
            )
        return best[full]

    def _join_split(
        self,
        left_alternatives: Sequence[PlanCandidate],
        right_alternatives: Sequence[PlanCandidate],
        split: _Split,
        estimator: CostEstimator,
        candidates: List[PlanCandidate],
        lowest: List[float],
    ) -> None:
        """Every join method over every pair of alternatives of one split
        that can still rank among its subset's cheapest, appended to
        *candidates*; *lowest* keeps the subset's smallest totals.

        A pair is skipped once ``left.total + right.total`` exceeds the
        ``KEEP_ALTERNATIVES``-th smallest total priced for the subset:
        both join formulas add non-negative terms to that sum, so each
        of its joins would sort behind that many candidates, and the
        subset's candidates have distinct signatures, so ``_dedupe``
        keeps none beyond them (docs/cost_model.md, "The join DP's
        bound").  The key lists and the nested-loop condition belong to
        the split, so its joins share them — and *estimator*, which
        prices by identity, evaluates their selectivity once for the
        split.
        """
        keep = KEEP_ALTERNATIVES
        left_keys, right_keys = split.left_keys, split.right_keys
        for left_alt, right_alt in itertools.product(
            left_alternatives, right_alternatives
        ):
            if (
                len(lowest) == keep
                and left_alt.cost.total + right_alt.cost.total > lowest[-1]
            ):
                continue
            left, right = left_alt.plan, right_alt.plan
            joins: List[PhysicalPlan] = []
            if left_keys:
                joins.append(HashJoin(left, right, left_keys, right_keys))
            joins.append(NestedLoopJoin(left, right, split.condition))
            for join in joins:
                cost = join.estimate_cost(estimator)
                candidates.append(PlanCandidate(join, cost))
                if len(lowest) < keep or cost.total < lowest[-1]:
                    bisect.insort(lowest, cost.total)
                    del lowest[keep:]

    # -- fixed join chains (outer joins) ------------------------------------

    def _fixed_chain_plans(
        self, block: QueryBlock, estimator: CostEstimator
    ) -> List[PlanCandidate]:
        """Left-deep plans in statement order (outer joins pin the order).

        Two method profiles are tried — hash joins wherever the ON
        clause permits, and nested loops throughout — giving the caller
        genuine alternatives without violating the fixed order.  The
        two chains share each relation's scan.
        """
        assert block.fixed_join_root is not None
        scans = {binding: _scan(r) for binding, r in block.relations.items()}
        candidates: List[PlanCandidate] = []
        for prefer_hash in (True, False):
            plan = scans[block.fixed_join_root]
            bound = {block.fixed_join_root}
            for step in block.fixed_joins:
                plan = self._fixed_join(
                    plan, scans[step.binding], step, frozenset(bound), prefer_hash
                )
                bound.add(step.binding)
            candidates.append(
                PlanCandidate(plan, plan.estimate_cost(estimator))
            )
        candidates.sort(key=lambda c: c.cost.total)
        # Both, whatever ``KEEP_ALTERNATIVES``: finishing can reorder them.
        return _dedupe(candidates, len(candidates))

    def _fixed_join(
        self,
        left: PhysicalPlan,
        right: PhysicalPlan,
        step,
        left_bindings: FrozenSet[str],
        prefer_hash: bool,
    ) -> PhysicalPlan:
        parts = conjuncts(step.condition)
        left_keys: List[str] = []
        right_keys: List[str] = []
        residual_parts: List[Expression] = []
        for part in parts:
            keys = _chain_equi_keys(part, left_bindings, step.binding)
            if keys is not None and prefer_hash:
                left_keys.append(keys[0])
                right_keys.append(keys[1])
            else:
                residual_parts.append(part)
        if left_keys:
            residual = combine_conjuncts(residual_parts)
            return HashJoin(
                left, right, left_keys, right_keys, residual, step.outer
            )
        return NestedLoopJoin(left, right, step.condition, step.outer)


def _scan(relation: BoundRelation) -> PhysicalPlan:
    """The sequential scan of *relation* with its local predicate."""
    return SeqScan(relation.table, relation.binding, relation.predicate)


def finish_plan(plan: PhysicalPlan, block: QueryBlock) -> PhysicalPlan:
    """Put *block*'s tail on a plan that produces its joined relations:
    residual filter, aggregate or project, distinct, sort, limit.  The
    optimizer finishes local plans with it, the integrator its merge."""
    if block.residual is not None:
        plan = Filter(plan, block.residual)
    if block.has_aggregation:
        plan = HashAggregate(
            plan,
            block.group_by,
            block.items,
            block.output_schema,
            having=block.having,
        )
    else:
        plan = Project(plan, block.items, block.output_schema)
    if block.distinct:
        plan = Distinct(plan)
    if block.order_by:
        plan = Sort(plan, block.order_by)
    if block.limit is not None:
        plan = Limit(plan, block.limit)
    return plan


def _chain_equi_keys(
    part: Expression,
    left_bindings: FrozenSet[str],
    right_binding: str,
) -> Optional[Tuple[str, str]]:
    """Match ``l.x = r.y`` between the accumulated left side and the new
    right relation (either orientation); None if not a usable key."""
    if is_equijoin_conjunct(part):
        if part.left.table in left_bindings and part.right.table == right_binding:
            return part.left.name, part.right.name
        if part.right.table in left_bindings and part.left.table == right_binding:
            return part.right.name, part.left.name
    return None


def _subset_splits(subset: FrozenSet[str], block: QueryBlock) -> List[_Split]:
    splits = []
    for left, right in _splits(subset):
        edges = [e for e in block.join_edges if e.connects(left, right)]
        keys = [edge.oriented(left) for edge in edges]
        splits.append(
            _Split(
                left,
                right,
                tuple(lk for lk, _ in keys),
                tuple(rk for _, rk in keys),
                combine_conjuncts([e.expression() for e in edges]),
            )
        )
    return splits


def _splits(
    subset: FrozenSet[str],
) -> List[Tuple[FrozenSet[str], FrozenSet[str]]]:
    """All two-way partitions of *subset* (both orientations)."""
    members = sorted(subset)
    splits = []
    for size in range(1, len(members)):
        for combo in itertools.combinations(members, size):
            left = frozenset(combo)
            right = subset - left
            splits.append((left, right))
    return splits


def _dedupe(
    candidates: Sequence[PlanCandidate], keep: int
) -> List[PlanCandidate]:
    """The first *keep* candidates with distinct signatures, in order."""
    seen = set()
    unique: List[PlanCandidate] = []
    for candidate in candidates:
        if len(unique) == keep:
            break
        signature = candidate.signature
        if signature in seen:
            continue
        seen.add(signature)
        unique.append(candidate)
    return unique


def plan_sql(
    sql: str,
    catalog: Catalog,
    profile: ServerProfile = REFERENCE_PROFILE,
) -> List[PlanCandidate]:
    """Parse, bind and optimize a SQL string."""
    return Optimizer(profile).optimize(bind(parse(sql), catalog))
