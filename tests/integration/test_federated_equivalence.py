"""Property-based end-to-end correctness: federated == single-node.

For randomly generated federated queries, the integrator's result (any
routing, any replica, fragment merge at II) must equal executing the
same SQL directly on one server's database.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Calibration
from repro.harness import build_federation
from repro.harness.deployment import build_replica_federation
from repro.sqlengine import rows_close_unordered
from repro.workload import TEST_SCALE


@st.composite
def _federated_queries(draw):
    predicate_kind = draw(st.sampled_from(["price", "priority", "none", "both"]))
    parts = []
    if predicate_kind in ("price", "both"):
        threshold = draw(st.integers(200, 9_000))
        parts.append(f"o.totalprice > {threshold}")
    if predicate_kind in ("priority", "both"):
        values = sorted(
            draw(st.sets(st.integers(1, 5), min_size=1, max_size=3))
        )
        parts.append(f"o.priority IN ({', '.join(map(str, values))})")
    where = f" WHERE {' AND '.join(parts)}" if parts else ""
    aggregate = draw(
        st.sampled_from(
            [
                "COUNT(*) AS n",
                "COUNT(*) AS n, SUM(l.extprice) AS s",
                "COUNT(*) AS n, MAX(l.quantity) AS m",
            ]
        )
    )
    return (
        f"SELECT o.priority, {aggregate} FROM orders o "
        f"JOIN lineitem l ON o.orderkey = l.orderkey{where} "
        "GROUP BY o.priority"
    )


@pytest.fixture(scope="module")
def single_site(sample_databases):
    return build_federation(
        scale=TEST_SCALE,
        calibration=Calibration(),
        prebuilt_databases=sample_databases,
    )


@pytest.fixture(scope="module")
def multi_site():
    return build_replica_federation(
        scale=TEST_SCALE, calibration=Calibration()
    )


class TestFederatedEquivalence:
    @given(_federated_queries())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_full_pushdown_matches_direct(
        self, single_site, sample_databases, sql
    ):
        federated = single_site.integrator.submit(sql)
        direct = sample_databases["S1"].run(sql)
        assert rows_close_unordered(federated.rows, direct.rows), sql

    @given(_federated_queries())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cross_site_merge_matches_direct(
        self, multi_site, sample_databases, sql
    ):
        federated = multi_site.integrator.submit(sql)
        assert len(federated.fragments) == 2  # orders and lineitem split
        direct = sample_databases["S1"].run(sql)
        assert rows_close_unordered(federated.rows, direct.rows), sql


@pytest.mark.parametrize("site", ["single_site", "multi_site"])
def test_small_float_literal_survives_decomposition(site, request):
    """``Literal.sql()`` renders 0.00001 as 1e-05 in the fragment text;
    the remote parser used to read that as ``1``, ``e``, ``-``, ``05``."""
    integrator = request.getfixturevalue(site).integrator
    sql = (
        "SELECT o.priority, COUNT(*) AS cnt FROM orders o "
        "JOIN lineitem l ON o.orderkey = l.orderkey "
        "WHERE o.totalprice > {} GROUP BY o.priority"
    )
    tiny = integrator.submit(sql.format("0.00001"))
    decomposed, _ = integrator.compile(sql.format("0.00001"))
    assert any("1e-05" in fragment.sql for fragment in decomposed.fragments)
    assert sorted(tiny.rows) == sorted(integrator.submit(sql.format("0")).rows)
