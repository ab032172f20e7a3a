"""Integration tests for Section 4's load distribution on live replicas."""


from repro.core import LoadBalanceConfig, QCCConfig
from repro.core.cycle import CycleConfig
from repro.core.load_balance import rank_servers
from repro.harness.deployment import build_replica_federation
from repro.sqlengine import rows_equal_unordered
from repro.workload import TEST_SCALE

Q6 = (
    "SELECT o.priority, COUNT(*) AS n FROM orders o "
    "JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.priority"
)

SINGLE = "SELECT custkey FROM customer WHERE acctbal > 100"

#: Calibration frozen so that any observed routing change is the work of
#: the *balancers* under test, not of calibration-driven adaptation.
_FROZEN = CycleConfig(
    base_interval_ms=600_000.0,
    min_interval_ms=600_000.0,
    max_interval_ms=600_000.0,
)


def _deployment(fragment=False, global_=False, band=0.5):
    config = QCCConfig(
        enable_fragment_balancing=fragment,
        enable_global_balancing=global_,
        load_balance=LoadBalanceConfig(band=band),
        cycle=_FROZEN,
        drift_trigger_ratio=0.0,
    )
    return build_replica_federation(scale=TEST_SCALE, qcc_config=config)


class TestGlobalLevelBalancing:
    def test_rotation_spreads_q6_across_server_sets(self):
        deployment = _deployment(global_=True, band=1.0)
        server_sets = set()
        for _ in range(6):
            result = deployment.integrator.submit(Q6)
            server_sets.add(result.plan.servers)
        assert len(server_sets) >= 2

    def test_rotation_preserves_results(self):
        deployment = _deployment(global_=True, band=1.0)
        results = [deployment.integrator.submit(Q6).rows for _ in range(4)]
        for other in results[1:]:
            assert rows_equal_unordered(results[0], other)

    def test_disabled_balancing_sticks_to_cheapest(self):
        deployment = _deployment(global_=False)
        server_sets = {
            frozenset(deployment.integrator.submit(Q6).plan.servers)
            for _ in range(4)
        }
        assert len(server_sets) == 1


class TestFragmentLevelBalancing:
    def test_hot_fragment_rotates_over_its_cluster(self):
        """Section 4.1 end to end: repeated submissions of one statement
        visit both members of its {S1, R1} cluster, HRW home first, and
        every replica gives the same rows."""
        deployment = _deployment(fragment=True, band=1.0)
        servers, answers = [], []
        for _ in range(6):
            result = deployment.integrator.submit(SINGLE)
            (outcome,) = result.fragments.values()
            servers.append(outcome.option.server)
            answers.append(result.rows)
        order = rank_servers(outcome.option.fragment.signature, ["S1", "R1"])
        assert servers == order * 3
        assert all(rows == answers[0] for rows in answers)

    def test_substitution_results_identical(self):
        deployment = _deployment(fragment=True, band=1.0)
        results = [
            deployment.integrator.submit(SINGLE).rows for _ in range(4)
        ]
        for other in results[1:]:
            assert rows_equal_unordered(results[0], other)

    def test_distinct_fragments_spread_over_replicas(self):
        """The first dispatch of each distinct fragment instance
        (different literals) lands on its HRW home, spreading load
        across the cluster."""
        deployment = _deployment(fragment=True, band=1.0)
        used = set()
        for bal in range(40, 72):
            sql = f"SELECT custkey FROM customer WHERE acctbal > {bal}"
            result = deployment.integrator.submit(sql)
            (outcome,) = result.fragments.values()
            signature = outcome.option.fragment.signature
            assert outcome.option.server == rank_servers(
                signature, ["S1", "R1"]
            )[0]
            used.add(outcome.option.server)
        assert used == {"S1", "R1"}
