"""Unit tests for global plan enumeration, dominance and clustering."""

import dataclasses
import itertools
import math

import pytest

from repro.fed import (
    FederationError,
    NicknameRegistry,
    cluster_near_cost,
    decompose,
    eliminate_dominated,
    enumerate_global_plans,
)
from repro.fed import global_optimizer
from repro.fed.global_optimizer import FragmentOption, GlobalPlan
from repro.fed.merge import estimate_merge_cost
from repro.sqlengine import (
    PlanCost,
    REFERENCE_PROFILE,
    SeqScan,
)


@pytest.fixture()
def q6_setup(sample_databases):
    """The Section 4 scenario: two fragments, two candidate servers each."""
    registry = NicknameRegistry()
    db = sample_databases["S1"]
    registry.register("orders", "S1", table_def=db.catalog.lookup("orders"))
    registry.register("orders", "R1")
    registry.register("lineitem", "S2", table_def=db.catalog.lookup("lineitem"))
    registry.register("lineitem", "R2")
    sql = (
        "SELECT o.priority, COUNT(*) AS n FROM orders o "
        "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.priority"
    )
    decomposed = decompose(sql, registry)
    db_table = db.catalog.lookup("orders")
    line_table = db.catalog.lookup("lineitem")

    def option(fragment, server, total, rows=100.0, plan_table=None):
        plan = SeqScan(plan_table or db_table, fragment.bindings[0])
        cost = PlanCost(first_tuple=1.0, total=total, rows=rows)
        return FragmentOption(
            fragment=fragment,
            server=server,
            plan=plan,
            estimated=cost,
            calibrated=cost,
        )

    qf1, qf2 = decomposed.fragments
    options = {
        qf1.fragment_id: [
            option(qf1, "S1", 10.0),
            option(qf1, "S1", 14.0),
            option(qf1, "R1", 11.0),
        ],
        qf2.fragment_id: [
            option(qf2, "S2", 20.0, plan_table=line_table),
            option(qf2, "S2", 25.0, plan_table=line_table),
            option(qf2, "R2", 21.0, plan_table=line_table),
        ],
    }
    return decomposed, options


class TestEnumeration:
    def test_nine_combinations(self, q6_setup):
        decomposed, options = q6_setup
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        # 3 x 3 = 9 combinations, all retained (keep=16 default)
        assert len(plans) == 9

    def test_sorted_and_ids_assigned(self, q6_setup):
        decomposed, options = q6_setup
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        totals = [p.total_cost for p in plans]
        assert totals == sorted(totals)
        assert [p.plan_id for p in plans] == [f"p{i+1}" for i in range(9)]

    def test_total_is_max_fragment_plus_merge(self, q6_setup):
        decomposed, options = q6_setup
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        best = plans[0]
        fragment_max = max(c.calibrated.total for c in best.choices)
        assert best.total_cost == pytest.approx(
            fragment_max + best.merge_cost.total
        )

    def test_ii_factor_scales_merge(self, q6_setup):
        decomposed, options = q6_setup
        base = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )[0]
        inflated = enumerate_global_plans(
            decomposed,
            options,
            REFERENCE_PROFILE,
            ii_calibration_factor=3.0,
        )[0]
        assert inflated.total_cost > base.total_cost

    def test_infinite_options_dropped(self, q6_setup):
        decomposed, options = q6_setup
        qf1 = decomposed.fragments[0]
        bad = options[qf1.fragment_id][0]
        options[qf1.fragment_id][0] = FragmentOption(
            fragment=bad.fragment,
            server=bad.server,
            plan=bad.plan,
            estimated=bad.estimated,
            calibrated=PlanCost(math.inf, math.inf, 0.0),
        )
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        assert all(math.isfinite(p.total_cost) for p in plans)

    def test_no_viable_option_raises(self, q6_setup):
        decomposed, options = q6_setup
        qf1 = decomposed.fragments[0]
        options[qf1.fragment_id] = []
        with pytest.raises(FederationError, match="no viable server"):
            enumerate_global_plans(
                decomposed, options, REFERENCE_PROFILE
            )


def _per_combination(decomposed, options, profile, factor, keep):
    """The merge priced for every combination: what the enumeration
    does with each distinct tuple of fragment cardinalities priced once."""
    per_fragment = [
        sorted(options[f.fragment_id], key=lambda o: o.calibrated.total)
        for f in decomposed.fragments
    ]
    plans = []
    for combo in itertools.product(*per_fragment):
        merge = estimate_merge_cost(
            decomposed,
            {c.fragment.fragment_id: c.calibrated.rows for c in combo},
            profile,
        )
        total = max(c.calibrated.total for c in combo) + merge.total * factor
        plans.append(GlobalPlan("", tuple(combo), merge, total))
    plans.sort(key=lambda p: p.total_cost)
    return [
        dataclasses.replace(p, plan_id=f"p{i + 1}") for i, p in enumerate(plans[:keep])
    ]


def _with_rows(options, rows):
    """*options* with calibrated cardinalities *rows*, in order."""
    return {
        fragment_id: [
            dataclasses.replace(
                option, calibrated=dataclasses.replace(option.calibrated, rows=r)
            )
            for option, r in zip(fragment_options, rows[fragment_id])
        ]
        for fragment_id, fragment_options in options.items()
    }


class TestMergePricedOncePerCardinality:
    @pytest.mark.parametrize(
        "rows, distinct",
        [
            ({"QF1": (100.0,) * 3, "QF2": (100.0,) * 3}, 1),
            ({"QF1": (100.0, 40.0, 100.0), "QF2": (7.0, 7.0, 3000.0)}, 4),
        ],
        ids=["equal", "different"],
    )
    @pytest.mark.parametrize("keep", [16, 4])
    def test_equals_per_combination_costing(
        self, q6_setup, monkeypatch, rows, distinct, keep
    ):
        decomposed, options = q6_setup
        options = _with_rows(options, rows)
        qf1 = decomposed.fragments[0].fragment_id
        # A tie on the fragment side: the order must still be the stable one.
        options[qf1][2] = dataclasses.replace(
            options[qf1][2], calibrated=options[qf1][0].calibrated
        )
        calls = []

        def counting(decomposed, fragment_rows, profile):
            calls.append(tuple(fragment_rows.values()))
            return estimate_merge_cost(decomposed, fragment_rows, profile)

        monkeypatch.setattr(global_optimizer, "estimate_merge_cost", counting)
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE, 1.5, keep=keep
        )
        assert len(calls) == len(set(calls)) == distinct
        expected = _per_combination(decomposed, options, REFERENCE_PROFILE, 1.5, keep)
        assert [
            (p.plan_id, p.choices, p.merge_cost, p.total_cost) for p in plans
        ] == [(p.plan_id, p.choices, p.merge_cost, p.total_cost) for p in expected]
        for plan in plans:
            assert plan.alternatives == {
                fragment_id: tuple(fragment_options)
                for fragment_id, fragment_options in options.items()
            }


class TestDominanceAndClustering:
    def test_eliminate_dominated_keeps_cheapest_per_server_set(self, q6_setup):
        decomposed, options = q6_setup
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        survivors = eliminate_dominated(plans)
        # 2x2 server sets = 4 distinct combinations
        assert len(survivors) == 4
        seen = set()
        for plan in survivors:
            assert plan.servers not in seen
            seen.add(plan.servers)
        # each survivor is the cheapest for its server set
        for plan in plans:
            winner = next(s for s in survivors if s.servers == plan.servers)
            assert winner.total_cost <= plan.total_cost

    def test_cluster_near_cost_band(self, q6_setup):
        decomposed, options = q6_setup
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        survivors = eliminate_dominated(plans)
        cluster = cluster_near_cost(survivors, band=0.2)
        cheapest = survivors[0].total_cost
        assert all(p.total_cost <= cheapest * 1.2 for p in cluster)
        assert survivors[0] in cluster

    def test_cluster_zero_band_is_singleton(self, q6_setup):
        decomposed, options = q6_setup
        plans = enumerate_global_plans(
            decomposed, options, REFERENCE_PROFILE
        )
        cluster = cluster_near_cost(eliminate_dominated(plans), band=0.0)
        assert len(cluster) >= 1
        assert cluster[0].total_cost == min(p.total_cost for p in plans)

    def test_cluster_empty(self):
        assert cluster_near_cost([], 0.2) == []
