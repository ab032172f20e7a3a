"""Unit tests for the simulated federated system (what-if planning)."""

import pytest

from repro.core import WhatIfPlanner
from repro.fed import enumerate_global_plans, decompose
from repro.harness.deployment import build_replica_federation
from repro.workload import TEST_SCALE


Q6 = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.priority"
)


@pytest.fixture(scope="module")
def replica_deployment():
    return build_replica_federation(scale=TEST_SCALE, with_qcc=False)


@pytest.fixture()
def planner(replica_deployment):
    return WhatIfPlanner(
        registry=replica_deployment.registry,
        meta_wrapper=replica_deployment.meta_wrapper,
        ii_profile=replica_deployment.integrator.profile,
    )


class TestDerivation:
    def test_explain_calls_equal_server_product(self, planner):
        # Q6 has two fragments with two candidate servers each: the
        # paper's "execute Q6 in the explain mode only four times".
        result = planner.derive_global_plans(Q6, 0.0)
        assert result.explain_calls == 4
        assert len(result.masked_combinations) == 4

    def test_winners_sorted_and_renumbered(self, planner):
        result = planner.derive_global_plans(Q6, 0.0)
        totals = [p.total_cost for p in result.plans]
        assert totals == sorted(totals)
        assert [p.plan_id for p in result.plans] == [
            f"p{i+1}" for i in range(len(result.plans))
        ]

    def test_each_winner_on_distinct_server_combination(self, planner):
        result = planner.derive_global_plans(Q6, 0.0)
        combos = [tuple(sorted(p.servers)) for p in result.plans]
        assert len(combos) == len(set(combos))

    def test_matches_direct_enumeration_per_server_set(
        self, planner, replica_deployment
    ):
        """The masked-compile trick finds, for each server combination,
        the same winner the full enumeration would rank for that set."""
        whatif = planner.derive_global_plans(Q6, 0.0)
        decomposed = decompose(Q6, replica_deployment.registry)
        options = {
            f.fragment_id: replica_deployment.meta_wrapper.compile_fragment(
                f, 0.0
            )
            for f in decomposed.fragments
        }
        full = enumerate_global_plans(
            decomposed,
            options,
            replica_deployment.integrator.profile,
            keep=100,
        )
        for plan in whatif.plans:
            same_set = [p for p in full if p.servers == plan.servers]
            assert same_set
            cheapest = min(p.total_cost for p in same_set)
            assert plan.total_cost == pytest.approx(cheapest)

