"""Tests for the simulated federated system (virtual tables)."""

import pytest

from repro.core import WhatIfPlanner, build_simulated_meta_wrapper
from repro.fed import decompose
from repro.harness.deployment import build_replica_federation
from repro.sqlengine import Database
from repro.workload import TEST_SCALE

Q6 = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.priority"
)


@pytest.fixture(scope="module")
def deployment():
    return build_replica_federation(scale=TEST_SCALE)


class TestStatsOnlyCopy:
    def test_explain_matches_source(self, deployment):
        source = deployment.servers["S1"].database
        clone = Database.stats_only_copy(source)
        sql = "SELECT COUNT(*) FROM orders WHERE totalprice > 5000"
        source_best = source.explain(sql)[0]
        clone_best = clone.explain(sql)[0]
        assert clone_best.cost.total == pytest.approx(source_best.cost.total)
        assert clone_best.plan.signature() == source_best.plan.signature()

    def test_clone_holds_no_data(self, deployment):
        source = deployment.servers["S1"].database
        clone = Database.stats_only_copy(source)
        with pytest.raises(Exception):
            clone.run("SELECT COUNT(*) FROM orders")

    def test_clone_stats_independent(self, deployment):
        source = deployment.servers["S1"].database
        clone = Database.stats_only_copy(source)
        original = source.catalog.lookup("orders").stats.row_count
        clone.catalog.lookup("orders").stats.row_count = 1
        assert source.catalog.lookup("orders").stats.row_count == original


class TestSimulatedMetaWrapper:
    def test_estimates_match_live_compilation(self, deployment):
        simulated = build_simulated_meta_wrapper(deployment)
        decomposed = decompose(Q6, deployment.registry)
        for fragment in decomposed.fragments:
            live = deployment.meta_wrapper.compile_fragment(fragment, 0.0)
            virtual = simulated.compile_fragment(fragment, 0.0)
            live_costs = sorted(o.estimated.total for o in live)
            virtual_costs = sorted(o.estimated.total for o in virtual)
            assert virtual_costs == pytest.approx(live_costs)

    def test_virtual_execution_impossible(self, deployment):
        simulated = build_simulated_meta_wrapper(deployment)
        decomposed = decompose(Q6, deployment.registry)
        options = simulated.compile_fragment(decomposed.fragments[0], 0.0)
        with pytest.raises(Exception):
            simulated.execute_option(options[0], 0.0)

    def test_calibration_view_applies_factors(self, deployment):
        qcc = deployment.qcc
        # Teach QCC a strong per-server factor on S1.
        from repro.sqlengine import PlanCost

        qcc.record_execution(
            server="S1",
            fragment_signature="sig",
            plan_signature="p",
            estimated=PlanCost(1.0, 10.0, 1.0),
            observed_ms=40.0,
            t_ms=0.0,
        )
        qcc.recalibrate(0.0)
        simulated = build_simulated_meta_wrapper(deployment)
        decomposed = decompose(Q6, deployment.registry)
        options = simulated.compile_fragment(decomposed.fragments[0], 0.0)
        s1_options = [o for o in options if o.server == "S1"]
        for option in s1_options:
            assert option.calibrated.total > option.estimated.total

    def test_whatif_records_do_not_pollute_qcc(self, deployment):
        before = deployment.qcc.compile_records
        planner = _simulated_planner(deployment)
        planner.derive_global_plans(Q6, 0.0)
        assert deployment.qcc.compile_records == before


def _simulated_planner(deployment, use_calibration=True):
    """A what-if planner over a stats-only copy of *deployment*."""
    return WhatIfPlanner(
        registry=deployment.registry,
        meta_wrapper=build_simulated_meta_wrapper(
            deployment, use_calibration=use_calibration
        ),
        ii_profile=deployment.integrator.profile,
    )


class TestPlannerFromDeployment:
    def test_derives_same_plan_space_as_live_mw(self, deployment):
        live = WhatIfPlanner(
            registry=deployment.registry,
            meta_wrapper=deployment.meta_wrapper,
            ii_profile=deployment.integrator.profile,
        ).derive_global_plans(Q6, 0.0)
        simulated = _simulated_planner(
            deployment, use_calibration=False
        ).derive_global_plans(Q6, 0.0)
        assert simulated.explain_calls == live.explain_calls
        live_sets = sorted(tuple(sorted(p.servers)) for p in live.plans)
        sim_sets = sorted(tuple(sorted(p.servers)) for p in simulated.plans)
        assert sim_sets == live_sets
