"""Unit tests for the evaluation workload package."""

import pytest

from repro.sqlengine import parse
from repro.workload import (
    BASE_LEVEL,
    BENCH_SCALE,
    FIXED_ASSIGNMENT_1,
    LOAD_LEVEL,
    PAPER_SCALE,
    PHASES,
    PREFERRED_SERVER,
    QT1,
    QT2,
    QT3,
    QT4,
    QUERY_TYPES,
    WorkloadScale,
    build_workload,
    table_specs,
    template_by_name,
)


class TestSchema:
    def test_paper_scale_sizes(self):
        specs = {s.name: s for s in table_specs(PAPER_SCALE)}
        assert specs["orders"].row_count == 100_000
        assert specs["customer"].row_count == 1_000

    def test_scale_preserves_ratio(self):
        specs = {s.name: s for s in table_specs(BENCH_SCALE)}
        assert specs["orders"].row_count == specs["lineitem"].row_count
        assert specs["orders"].row_count > specs["customer"].row_count * 10

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            WorkloadScale(large_rows=0, small_rows=1)

    def test_all_five_tables(self):
        names = {s.name for s in table_specs()}
        assert names == {"customer", "product", "supplier", "orders", "lineitem"}


class TestQueryTemplates:
    def test_four_types(self):
        assert [t.name for t in QUERY_TYPES] == ["QT1", "QT2", "QT3", "QT4"]

    @pytest.mark.parametrize("template", QUERY_TYPES, ids=lambda t: t.name)
    def test_instances_parse(self, template):
        for instance in template.instances(5):
            statement = parse(instance.sql)
            assert statement.group_by  # all QTs aggregate

    def test_instances_deterministic(self):
        assert QT1.instance(3).sql == QT1.instance(3).sql
        assert QT1.instance(3, seed=7).sql != QT1.instance(3, seed=8).sql

    def test_instances_vary_parameters(self):
        sqls = {QT1.instance(i).sql for i in range(10)}
        assert len(sqls) > 1

    def test_qt3_more_selective_than_qt1(self):
        def param_of(instance):
            # the parameter follows 'totalprice > '
            tail = instance.sql.split("totalprice > ")[1]
            return float(tail.split(" ")[0])

        qt1_params = [param_of(QT1.instance(i)) for i in range(10)]
        qt3_params = [param_of(QT3.instance(i)) for i in range(10)]
        assert min(qt3_params) > max(qt1_params)

    def test_qt4_joins_three_tables(self):
        statement = parse(QT4.instance(0).sql)
        assert len(statement.tables) + len(statement.joins) == 3

    def test_template_by_name(self):
        assert template_by_name("QT2") is QT2
        with pytest.raises(KeyError):
            template_by_name("QT9")


class TestPhases:
    def test_eight_phases(self):
        assert len(PHASES) == 8

    def test_table1_pattern(self):
        """Table 1 verbatim: S1 loaded in 5-8, S2 in 3,4,7,8, S3 even."""
        expected = {
            "S1": [False, False, False, False, True, True, True, True],
            "S2": [False, False, True, True, False, False, True, True],
            "S3": [False, True, False, True, False, True, False, True],
        }
        for server, pattern in expected.items():
            actual = [server in phase.loaded for phase in PHASES]
            assert actual == pattern, server

    def test_levels(self):
        phase = PHASES[1]
        assert phase.name == "Phase2"
        levels = phase.levels(("S1", "S2", "S3"))
        assert levels == {"S1": BASE_LEVEL, "S2": BASE_LEVEL, "S3": LOAD_LEVEL}

    def test_condition_labels(self):
        phase = PHASES[3]
        assert phase.name == "Phase4"
        assert phase.condition("S2") == "Load"
        assert phase.condition("S1") == "Base"

    def test_fixed_assignment_1(self):
        assert FIXED_ASSIGNMENT_1 == {
            "QT1": "S1",
            "QT2": "S2",
            "QT3": "S1",
            "QT4": "S3",
        }
        assert PREFERRED_SERVER == "S3"


class TestGenerator:
    def test_uniform_distribution(self):
        workload = build_workload(instances_per_type=10)
        assert len(workload) == 40
        counts = {}
        for instance in workload:
            counts[instance.query_type] = counts.get(instance.query_type, 0) + 1
        assert counts == {"QT1": 10, "QT2": 10, "QT3": 10, "QT4": 10}

    def test_deterministic_shuffle(self):
        a = [q.sql for q in build_workload(seed=7)]
        b = [q.sql for q in build_workload(seed=7)]
        assert a == b

    def test_round_robin_without_shuffle(self):
        workload = build_workload(instances_per_type=2, shuffle=False)
        assert [q.query_type for q in workload[:4]] == [
            "QT1", "QT2", "QT3", "QT4",
        ]

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            build_workload(instances_per_type=0)
