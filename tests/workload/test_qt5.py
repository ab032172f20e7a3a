"""Tests for the QT5 extension workload (outer-join report)."""


from repro.core import Calibration
from repro.harness import build_federation
from repro.sqlengine import parse, rows_equal_unordered
from repro.workload import (
    EXTENDED_QUERY_TYPES,
    QT5,
    QUERY_TYPES,
    TEST_SCALE,
    template_by_name,
)


class TestQt5Template:
    def test_not_in_reproduction_workload(self):
        assert QT5 not in QUERY_TYPES
        assert QT5 in EXTENDED_QUERY_TYPES

    def test_lookup_by_name(self):
        assert template_by_name("QT5") is QT5

    def test_instances_parse_with_outer_join(self):
        for instance in QT5.instances(3):
            statement = parse(instance.sql)
            assert statement.joins[0].outer

    def test_on_clause_carries_the_parameter(self):
        # the selective predicate lives in the ON clause, so customers
        # without qualifying orders are preserved, not filtered away
        instance = QT5.instance(0)
        statement = parse(instance.sql)
        assert statement.where is None
        assert "totalprice" in statement.joins[0].condition.sql()


class TestQt5Execution:
    def test_preserves_all_nations(self, sample_databases):
        db = sample_databases["S1"]
        result = db.run(QT5.instance(0).sql)
        # GROUP BY over the preserved side keeps every nation that has
        # at least one customer
        customer_nations = {
            r[1] for r in db.storage.table("customer").scan()
        }
        assert {r[0] for r in result.rows} == customer_nations

    def test_zero_order_groups_have_null_volume(self, sample_databases):
        db = sample_databases["S1"]
        # An absurd threshold preserves every customer but matches no
        # orders: COUNT(o.orderkey) = 0 and SUM over NULLs is NULL.
        sql = QT5.sql_format.format(p=10**9)
        result = db.run(sql)
        assert all(r[1] == 0 and r[2] is None for r in result.rows)

    def test_federated_matches_direct(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, calibration=Calibration(),
            prebuilt_databases=sample_databases,
        )
        instance = QT5.instance(1)
        federated = deployment.integrator.submit(instance.sql, label="QT5")
        direct = sample_databases["S1"].run(instance.sql)
        assert rows_equal_unordered(federated.rows, direct.rows)
