"""Wire cost and the checkpoint arithmetic re-routing builds on it.

A fragment's network time is its result rows times the output schema's
row width, shipped over the server's link.  Mid-query re-routing divides
the fragment's observed demand into uniform ``batch_rows`` spans
(:func:`repro.fed.batch_schedule`) and checkpoints whole spans only.
The properties below pin that arithmetic:

* :func:`repro.sim.exact_split`'s shares add back, left to right, to the
  total bit for bit;
* a schedule tiles ``[0, row_count)`` and its demands add back to the
  execution's processing plus network time;
* a checkpoint never cuts inside a span, and never keeps more demand
  than was consumed.
"""

from hypothesis import given, settings, strategies as st

from repro.fed import batch_schedule, checkpoint_consumed
from repro.numeric import left_sum
from repro.sim import (
    ContentionProfile,
    MutableLoad,
    NetworkLink,
    RemoteExecution,
    RemoteServer,
    exact_split,
)
from repro.sqlengine import Database, ServerProfile, populate

NUMERIC_SQL = "SELECT empno, deptno, salary FROM emp"

#: Non-negative, finite virtual milliseconds of every magnitude.
_MS = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
_WEIGHTS = st.lists(
    st.floats(
        min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
    min_size=1,
    max_size=40,
)
_ROWS = st.integers(min_value=0, max_value=3_000)
_BATCH_ROWS = st.sampled_from([1, 2, 7, 1024])


def _execution(rows, processing_ms, network_ms):
    return RemoteExecution(
        rows=[()] * rows,
        schema=None,
        observed_ms=processing_ms + network_ms,
        processing_ms=processing_ms,
        network_ms=network_ms,
        started_ms=0.0,
    )


class TestRowWidthCosting:
    def test_row_width_costing(self, tiny_specs):
        database = Database(
            "srv", profile=ServerProfile("srv", cpu_speed=2.0, io_speed=2.0)
        )
        populate(database, tiny_specs, seed=42)
        server = RemoteServer(
            name="srv",
            database=database,
            contention=ContentionProfile(0.9, 0.9),
            load=MutableLoad(0.0),
            link=NetworkLink(latency_ms=5.0, bandwidth_mbps=100.0),
        )
        plan = server.explain(NUMERIC_SQL, 0.0)[0].plan
        execution = server.execute_plan(plan, 0.0)
        expected_bytes = (
            execution.row_count * plan.output_schema.row_width_bytes()
        )
        assert execution.network_ms == server.link.request_response_ms(
            512.0, expected_bytes, 0.0
        )
        assert execution.observed_ms == (
            execution.processing_ms + execution.network_ms
        )


class TestBatchAttribution:
    @settings(max_examples=300, deadline=None)
    @given(total=_MS, weights=_WEIGHTS)
    def test_shares_sum_bit_exactly(self, total, weights):
        shares = exact_split(total, weights)
        assert len(shares) == len(weights)
        assert left_sum(shares) == total

    @settings(deadline=None)
    @given(rows=_ROWS, batch_rows=_BATCH_ROWS, processing=_MS, network=_MS)
    def test_spans_tile_the_result(self, rows, batch_rows, processing, network):
        schedule = batch_schedule(
            _execution(rows, processing, network), batch_rows
        )
        assert schedule[0].start_row == 0
        assert schedule[-1].stop_row == rows
        for before, after in zip(schedule, schedule[1:]):
            assert before.stop_row == after.start_row
        full, rest = divmod(rows, batch_rows)
        expected = [batch_rows] * full + ([rest] if rest or not full else [])
        assert [span.row_count for span in schedule] == expected

    @settings(deadline=None)
    @given(rows=_ROWS, batch_rows=_BATCH_ROWS, processing=_MS, network=_MS)
    def test_batch_demand_is_processing_plus_network(
        self, rows, batch_rows, processing, network
    ):
        execution = _execution(rows, processing, network)
        schedule = batch_schedule(execution, batch_rows)
        assert (
            left_sum(span.demand_ms for span in schedule)
            == execution.observed_ms
        )

    @settings(deadline=None)
    @given(
        rows=_ROWS,
        batch_rows=_BATCH_ROWS,
        processing=_MS,
        network=_MS,
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2
        ),
    )
    def test_checkpoint_never_cuts_inside_a_span(
        self, rows, batch_rows, processing, network, fractions
    ):
        execution = _execution(rows, processing, network)
        schedule = batch_schedule(execution, batch_rows)
        boundaries = [0] + [span.stop_row for span in schedule]
        earlier, later = (
            checkpoint_consumed(schedule, execution.observed_ms * fraction)
            for fraction in sorted(fractions)
        )
        for point, fraction in zip((earlier, later), sorted(fractions)):
            consumed = execution.observed_ms * fraction
            kept = schedule[: point.batches_kept]
            assert point.cut_row == boundaries[point.batches_kept]
            assert point.kept_demand_ms == left_sum(
                span.demand_ms for span in kept
            )
            assert point.kept_demand_ms <= consumed * (1 + 1e-9) + 1e-9
        # More service consumed never moves the cut back.
        assert earlier.cut_row <= later.cut_row
