"""II-side merge planning.

After fragments return, the integrator joins/filters/aggregates their
results locally.  The same plan *shape* is used twice:

* at compile time with :class:`EstimatedInput` leaves (cardinality
  estimates only) to cost the integration work of each global plan;
* at run time with :class:`~repro.sqlengine.MaterializedInput` leaves
  holding the actual fragment rows.

Reusing the engine's physical operators means II's merge work is metered
in the same currency as remote work.
"""

from __future__ import annotations

from typing import Dict, List

from ..sqlengine import (
    Filter,
    HashJoin,
    NestedLoopJoin,
    PhysicalPlan,
    PlanCost,
    Schema,
    finish_plan,
)
from ..sqlengine.cost import ServerProfile, StatsContext
from ..sqlengine.physical import CostEstimator
from ..sqlengine.expressions import combine_conjuncts
from ..sqlengine.logical import JoinEdge
from .decomposer import DecomposedQuery
from .nicknames import FederationError


class EstimatedInput(PhysicalPlan):
    """A plan leaf carrying only an estimated cardinality.

    Used to cost II-side merge plans before any fragment has executed —
    and by the what-if planner, which never executes anything.
    """

    def __init__(self, name: str, schema: Schema, estimated_rows: float):
        self.name = name
        self.output_schema = schema
        self.estimated_rows = max(float(estimated_rows), 0.0)

    def _cost(self, estimator: CostEstimator) -> PlanCost:
        return PlanCost(
            first_tuple=0.0,
            total=0.0,
            rows=max(self.estimated_rows, 1.0),
            width_bytes=self.output_schema.row_width_bytes(),
        )

    def rows(self, ctx):
        # Overrides the base dispatch outright: this leaf never executes,
        # so neither engine nor profiler should ever touch it.
        raise FederationError(
            f"EstimatedInput {self.name} is compile-time only"
        )

    _rows = rows

    def describe(self) -> str:
        return f"EstimatedInput({self.name} rows~{self.estimated_rows:.0f})"


def build_merge_plan(
    decomposed: DecomposedQuery,
    inputs: Dict[str, PhysicalPlan],
) -> PhysicalPlan:
    """Assemble the II-side plan over per-fragment input leaves.

    *inputs* maps fragment_id to an input leaf (estimated or materialised)
    whose schema must equal the fragment's ``output_schema``.
    """
    fragments = decomposed.fragments
    for fragment in fragments:
        if fragment.fragment_id not in inputs:
            raise FederationError(
                f"missing input for fragment {fragment.fragment_id}"
            )

    if decomposed.is_single_fragment and fragments[0].full_pushdown:
        # The remote server computed the whole query; merge is identity.
        return inputs[fragments[0].fragment_id]

    binding_fragment = {
        binding: fragment.fragment_id
        for fragment in fragments
        for binding in fragment.bindings
    }

    plan = inputs[fragments[0].fragment_id]
    joined_fragments = {fragments[0].fragment_id}
    remaining = list(fragments[1:])
    pending_edges = list(decomposed.cross_edges)

    while remaining:
        # Prefer a fragment connected to the joined set by an equijoin.
        chosen_index = 0
        chosen_edges: List[JoinEdge] = []
        for index, fragment in enumerate(remaining):
            edges = [
                e
                for e in pending_edges
                if _edge_connects(e, binding_fragment, joined_fragments,
                                  fragment.fragment_id)
            ]
            if edges:
                chosen_index = index
                chosen_edges = edges
                break
        fragment = remaining.pop(chosen_index)
        right = inputs[fragment.fragment_id]
        if chosen_edges:
            left_keys, right_keys = [], []
            for edge in chosen_edges:
                pending_edges.remove(edge)
                if binding_fragment[edge.left_binding] in joined_fragments:
                    left_keys.append(edge.left_column)
                    right_keys.append(edge.right_column)
                else:
                    left_keys.append(edge.right_column)
                    right_keys.append(edge.left_column)
            plan = HashJoin(plan, right, left_keys, right_keys)
        else:
            plan = NestedLoopJoin(plan, right, None)
        joined_fragments.add(fragment.fragment_id)

    if pending_edges:
        predicate = combine_conjuncts([e.expression() for e in pending_edges])
        assert predicate is not None
        plan = Filter(plan, predicate)

    return finish_plan(plan, decomposed.block)


def _edge_connects(
    edge: JoinEdge,
    binding_fragment: Dict[str, str],
    joined: set,
    candidate: str,
) -> bool:
    left = binding_fragment[edge.left_binding]
    right = binding_fragment[edge.right_binding]
    return (left in joined and right == candidate) or (
        right in joined and left == candidate
    )


def estimate_merge_cost(
    decomposed: DecomposedQuery,
    fragment_rows: Dict[str, float],
    profile: ServerProfile,
) -> PlanCost:
    """Cost the II-side merge for given fragment cardinalities."""
    inputs: Dict[str, PhysicalPlan] = {
        fragment.fragment_id: EstimatedInput(
            fragment.fragment_id,
            fragment.output_schema,
            fragment_rows.get(fragment.fragment_id, 1.0),
        )
        for fragment in decomposed.fragments
    }
    plan = build_merge_plan(decomposed, inputs)
    stats = StatsContext(
        {
            binding: relation.table.stats
            for binding, relation in decomposed.block.relations.items()
        }
    )
    estimator = CostEstimator(profile=profile, stats=stats)
    return plan.estimate_cost(estimator)
