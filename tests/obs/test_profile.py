"""Operator profiler: counters, plan profiles, EXPLAIN ANALYZE rendering,
and equal per-operator profiles one row per batch and at the default
batch size on real federated queries."""

from __future__ import annotations

import pytest

from repro.obs.profile import (
    NULL_PROFILER,
    OperatorProfiler,
    OperatorStats,
    PlanProfile,
    disable_profiling,
    enable_profiling,
    get_profiler,
    profiling,
    render_analyzed_plan,
)
from repro.harness import build_federation
from repro.sqlengine import (
    DEFAULT_BATCH_SIZE,
    ColumnBatch,
    NestedLoopJoin,
    SeqScan,
    execute_plan,
)
from repro.workload import QUERY_TYPES, TEST_SCALE
from tests.batching import batch_size


class FakeNode:
    """Minimal plan-node stand-in: describe() + children() +
    _rows_columnar(), one batch of every row with the first deselected."""

    def __init__(self, name, rows=(), children=()):
        self.name = name
        self._rows_data = list(rows)
        self._children = list(children)

    def children(self):
        return self._children

    def describe(self):
        return self.name

    def _rows_columnar(self, ctx):
        if self._rows_data:
            batch = ColumnBatch.from_rows([(v,) for v in self._rows_data], 1)
            yield batch.with_sel(batch.selected()[1:])


class OneRowBatches(FakeNode):
    """A stand-in that emits one single-row batch per row."""

    def _rows_columnar(self, ctx):
        for value in self._rows_data:
            yield ColumnBatch.from_rows([(value,)], 1)


class FakeMeter:
    def __init__(self):
        self.total_ms = 0.0


class FakeCtx:
    def __init__(self):
        self.meter = FakeMeter()


class TestOperatorStats:
    def test_to_dict_reports_wall_in_ms(self):
        stats = OperatorStats()
        stats.invocations = 2
        stats.rows_out = 10
        stats.batches = 1
        stats.wall_s = 0.5
        stats.meter_ms = 7.0
        assert stats.to_dict() == {
            "invocations": 2,
            "rows_out": 10,
            "batches": 1,
            "wall_ms": 500.0,
            "meter_ms": 7.0,
        }


class TestProfilerWrappers:
    def test_profile_columnar_counts_batches_and_physical_rows(self):
        profiler = OperatorProfiler()
        node = FakeNode("scan", rows=[1, 2, 3])
        ctx = FakeCtx()
        batches = list(profiler.profile_columnar(node, ctx))
        assert [b.materialize() for b in batches] == [[(2,), (3,)]]
        list(profiler.profile_columnar(node, ctx))
        stats = profiler.capture().stats_for(node)
        assert stats.invocations == 2
        assert stats.rows_out == 4
        assert stats.batches == 2
        assert stats.phys_rows == 6

    def test_meter_delta_attributed_to_node(self):
        profiler = OperatorProfiler()
        ctx = FakeCtx()

        class Charging(FakeNode):
            def _rows_columnar(self, inner_ctx):
                for value in self._rows_data:
                    inner_ctx.meter.total_ms += 2.0
                    yield ColumnBatch.from_rows([(value,)], 1)

        node = Charging("scan", rows=[1, 2])
        list(profiler.profile_columnar(node, ctx))
        stats = profiler.capture().stats_for(node)
        assert stats.meter_ms == pytest.approx(4.0)

    def test_partial_consumption_still_records_on_close(self):
        profiler = OperatorProfiler()
        node = OneRowBatches("scan", rows=[1, 2, 3, 4])
        stream = profiler.profile_columnar(node, FakeCtx())
        next(stream)
        next(stream)
        stream.close()
        stats = profiler.capture().stats_for(node)
        assert stats.rows_out == 2

    def test_reset_clears_entries(self):
        profiler = OperatorProfiler()
        node = FakeNode("scan", rows=[1])
        list(profiler.profile_columnar(node, FakeCtx()))
        profiler.reset()
        assert len(profiler.capture()) == 0

    def test_null_profiler_passes_through(self):
        node = OneRowBatches("scan", rows=[1, 2])
        batches = list(NULL_PROFILER.profile_columnar(node, FakeCtx()))
        assert [b.materialize() for b in batches] == [[(1,)], [(2,)]]
        assert len(NULL_PROFILER._entries) == 0


class TestGlobalState:
    def test_default_is_null(self):
        assert get_profiler() is NULL_PROFILER

    def test_enable_disable_cycle(self):
        profiler = enable_profiling()
        try:
            assert get_profiler() is profiler
            assert profiler is not NULL_PROFILER
        finally:
            disable_profiling()
        assert get_profiler() is NULL_PROFILER

    def test_context_manager_restores_null(self):
        with profiling() as profiler:
            assert get_profiler() is profiler
        assert get_profiler() is NULL_PROFILER


class TestPlanProfile:
    def _tree(self):
        leaf_a = FakeNode("leaf_a")
        leaf_b = FakeNode("leaf_b")
        join = FakeNode("join", children=[leaf_a, leaf_b])
        stats = {}
        for node, rows, meter in (
            (leaf_a, 10, 2.0),
            (leaf_b, 5, 3.0),
            (join, 8, 9.0),
        ):
            s = OperatorStats()
            s.invocations = 1
            s.rows_out = rows
            s.meter_ms = meter
            stats[id(node)] = (node, s)
        return join, leaf_a, leaf_b, PlanProfile(stats)

    def test_roots_excludes_descendants(self):
        join, leaf_a, leaf_b, profile = self._tree()
        assert profile.roots() == [join]

    def test_rows_in_sums_children(self):
        join, leaf_a, _, profile = self._tree()
        assert profile.rows_in(join) == 15
        assert profile.rows_in(leaf_a) is None

    def test_self_time_is_inclusive_minus_children(self):
        join, leaf_a, _, profile = self._tree()
        assert profile.self_meter_ms(join) == pytest.approx(4.0)
        assert profile.self_meter_ms(leaf_a) == pytest.approx(2.0)

    def test_to_dict_nests_children(self):
        join, _, _, profile = self._tree()
        payload = profile.to_dict()
        (plan,) = payload["plans"]
        assert plan["operator"] == "join"
        assert plan["rows_in"] == 15
        assert [c["operator"] for c in plan["children"]] == [
            "leaf_a",
            "leaf_b",
        ]


class TestRenderAnalyzedPlan:
    def test_annotates_actuals_and_never_executed(self):
        executed = FakeNode("scan")
        skipped = FakeNode("pruned")
        root = FakeNode("join", children=[executed, skipped])
        stats = OperatorStats()
        stats.invocations = 1
        stats.rows_out = 4
        entries = {
            id(root): (root, stats),
            id(executed): (executed, stats),
        }
        rendered = render_analyzed_plan(root, PlanProfile(entries))
        lines = rendered.splitlines()
        assert lines[0].startswith("join (actual rows=4")
        assert lines[1].startswith("  scan (actual rows=4")
        assert lines[2] == "  pruned (never executed)"

    def test_estimate_column_included_when_given(self):
        node = FakeNode("scan")
        stats = OperatorStats()
        stats.invocations = 1
        profile = PlanProfile({id(node): (node, stats)})

        class Cost:
            rows = 7.0
            total = 1.5

        rendered = render_analyzed_plan(
            node, profile, estimate=lambda n: Cost()
        )
        assert "(est rows=7 total=1.50)" in rendered

    def test_estimate_errors_propagate(self):
        # No estimate raises for any QT1-QT5 plan on either topology, so
        # one that does is a broken cost formula and must not render as
        # a silently missing (est ...) column.
        node = FakeNode("scan")
        profile = PlanProfile({})

        def broken(n):
            raise RuntimeError("cost formula blew up")

        with pytest.raises(RuntimeError, match="cost formula blew up"):
            render_analyzed_plan(node, profile, estimate=broken)


class TestEngineEquivalence:
    """The acceptance-criteria check: identical per-operator row counts
    one row per batch and at the default batch size."""

    def _profiled_counts(self, sample_databases, size, sql):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        with batch_size(size), profiling():
            result = deployment.integrator.submit(sql)
        assert result.profile is not None
        counts = sorted(
            (node.describe(), stats.rows_out)
            for node, stats in result.profile.operators()
        )
        return counts, result

    @pytest.mark.parametrize(
        "template", QUERY_TYPES, ids=[t.name for t in QUERY_TYPES]
    )
    def test_row_and_columnar_profiles_agree(
        self, sample_databases, template
    ):
        # Batch size 1 executes one row at a time, through every operator
        # of the fragments and of the II merge.
        sql = template.instance(0).sql
        row_counts, row_result = self._profiled_counts(sample_databases, 1, sql)
        col_counts, col_result = self._profiled_counts(
            sample_databases, DEFAULT_BATCH_SIZE, sql
        )
        assert row_counts == col_counts
        assert row_result.rows == col_result.rows
        assert all(
            stats.batches == stats.rows_out
            for _, stats in row_result.profile.operators()
        )
        assert all(
            stats.batches > 0 or stats.rows_out == 0
            for _, stats in col_result.profile.operators()
        )

    def test_result_profile_attached_and_queryable(self, sample_databases):
        sql = QUERY_TYPES[0].instance(0).sql
        _, result = self._profiled_counts(
            sample_databases, DEFAULT_BATCH_SIZE, sql
        )
        profile = result.profile
        roots = profile.roots()
        # Fragment plans, then the II merge plan.
        _, merge_plan = result.executed_plans()
        assert merge_plan is roots[-1]
        merge_stats = profile.stats_for(merge_plan)
        assert merge_stats.rows_out == result.row_count

    def test_no_subtree_drops_to_the_row_path(self, sample_databases):
        # The nested-loop join has no kernel-level columnar algorithm, but
        # it must pull its inputs as column batches: every scan below it
        # reports batches of its rows.
        database = sample_databases["S1"]
        orders = database.catalog.lookup("orders")
        customer = database.catalog.lookup("customer")
        left = SeqScan(orders, "o")
        right = SeqScan(customer, "c")
        plan = NestedLoopJoin(left, right, None)
        with profiling() as profiler:
            columnar = database.run_plan(plan)
        assert columnar.rows == execute_plan(
            plan, database.storage, batch_size=1
        ).rows
        profile = profiler.capture()
        for scan in (left, right):
            stats = profile.stats_for(scan)
            assert stats.batches > 0 and stats.phys_rows > 0
            assert stats.rows_out == stats.phys_rows
        assert profile.stats_for(plan).batches > 0

    def test_disabled_profiling_attaches_nothing(self, sample_databases):
        deployment = build_federation(
            scale=TEST_SCALE, prebuilt_databases=sample_databases
        )
        result = deployment.integrator.submit(
            QUERY_TYPES[0].instance(0).sql
        )
        assert result.profile is None
