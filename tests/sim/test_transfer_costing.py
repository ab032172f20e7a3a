"""Wire cost and the checkpoint arithmetic re-routing builds on it.

A fragment's network time is its result rows times the output schema's
row width, shipped over the server's link.  Mid-query re-routing cuts
the fragment's result into uniform ``batch_rows`` batches, each carrying
the share ``observed_ms * (batch_rows / row_count)`` of its demand, and
checkpoints whole batches only (:meth:`repro.fed.ReroutePolicy.checkpoint`).
The properties below pin that arithmetic:

* a checkpoint cuts on a batch boundary below the last row, keeps no
  more demand than was consumed, stops at the first boundary past the
  limit, and never moves back as the consumed service grows;
* a boundary exactly on the limit counts as reached, and the last batch
  ships only with the whole demand, even where the folded shares fall
  an ulp short of it;
* the checkpoint is None exactly when the whole demand fits the limit;
* the migrated tail's demand lies in ``[0, total]``, is the total at a
  cut of 0 and nothing at the last row, and never rises as the cut grows.
"""

from math import inf, nextafter

from hypothesis import given, settings, strategies as st

from repro.fed import ReroutePolicy, tail_demand_ms
from repro.fed.rerouting import _BOUNDARY_EPS
from repro.sim import (
    ContentionProfile,
    MutableLoad,
    NetworkLink,
    RemoteExecution,
    RemoteServer,
)
from repro.sqlengine import Database, ServerProfile, populate

NUMERIC_SQL = "SELECT empno, deptno, salary FROM emp"

#: Non-negative, finite virtual milliseconds of every magnitude.
_MS = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)
_ROWS = st.integers(min_value=1, max_value=3_000)
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


def _limit(consumed_ms):
    """The policy's reach: the consumed demand plus its relative slack."""
    return consumed_ms + _BOUNDARY_EPS * max(1.0, abs(consumed_ms))


class TestBatchAttribution:
    @settings(deadline=None)
    @given(
        extra_rows=_ROWS,
        batch_rows=_BATCH_ROWS,
        processing=_MS,
        network=_MS,
        fractions=st.lists(
            st.floats(min_value=0.0, max_value=1.5), min_size=2, max_size=2
        ),
    )
    def test_checkpoint_never_cuts_inside_a_span(
        self, extra_rows, batch_rows, processing, network, fractions
    ):
        # More rows than one batch: the fragment can migrate.
        rows = batch_rows + extra_rows
        execution = _execution(rows, processing, network)
        policy = ReroutePolicy(batch_rows)
        assert policy.migratable(execution)
        share = execution.observed_ms * (batch_rows / rows)
        consumed = sorted(execution.observed_ms * f for f in fractions)
        earlier, later = points = [
            policy.checkpoint(execution, c) for c in consumed
        ]
        for point, consumed_ms in zip(points, consumed):
            if point is None:
                continue
            assert point.cut_row == point.batches_kept * batch_rows
            assert point.cut_row < rows
            assert point.kept_demand_ms <= consumed_ms * (1 + 1e-9) + 1e-9
            # The cut stops at the first boundary past the limit, or at
            # the last batch, which only the whole demand completes.
            assert (
                point.cut_row + batch_rows >= rows
                or point.kept_demand_ms + share > _limit(consumed_ms)
            )
        # More service consumed never moves the cut back.
        if earlier is None:
            assert later is None
        elif later is not None:
            assert earlier.cut_row <= later.cut_row

    @settings(deadline=None)
    @given(consumed=_MS, batch_rows=_BATCH_ROWS, doublings=st.integers(1, 8))
    def test_a_boundary_on_the_limit_is_reached(
        self, consumed, batch_rows, doublings
    ):
        # 2**j batches make the share exactly total / 2**j, so a total
        # of 2**j limits puts the first boundary on the limit itself.
        batches = 2**doublings
        limit = _limit(consumed)
        execution = _execution(batch_rows * batches, limit * batches, 0.0)
        point = ReroutePolicy(batch_rows).checkpoint(execution, consumed)
        assert point is not None
        assert (point.cut_row, point.batches_kept) == (batch_rows, 1)
        assert point.kept_demand_ms == limit

    def test_the_last_batch_ships_only_with_the_whole_demand(self):
        # Ten shares of 1.0 / 10 fold to one ulp below 1.0: a limit on
        # that fold is short of the demand, so the last row stays put.
        execution = _execution(10, 1.0, 0.0)
        fold = 0.0
        for _ in range(10):
            fold += execution.observed_ms * (1 / 10)
        consumed = fold / (1 + _BOUNDARY_EPS)
        while _limit(consumed) < fold:
            consumed = nextafter(consumed, inf)
        assert _limit(consumed) == fold < execution.observed_ms
        point = ReroutePolicy(1).checkpoint(execution, consumed)
        assert (point.cut_row, point.batches_kept) == (9, 9)

    @settings(deadline=None)
    @given(consumed=_MS, rows=_ROWS, batch_rows=_BATCH_ROWS)
    def test_drained_exactly_when_the_demand_fits(
        self, consumed, rows, batch_rows
    ):
        policy = ReroutePolicy(batch_rows)
        limit = _limit(consumed)
        fits = _execution(batch_rows + rows, limit, 0.0)
        assert policy.checkpoint(fits, consumed) is None
        beyond = _execution(batch_rows + rows, nextafter(limit, inf), 0.0)
        assert policy.checkpoint(beyond, consumed) is not None

    @settings(deadline=None)
    @given(
        rows=_ROWS,
        total=_MS,
        cuts=st.lists(st.integers(0, 3_000), min_size=2, max_size=2),
    )
    def test_tail_demand_shrinks_from_total_to_nothing(self, rows, total, cuts):
        execution = _execution(rows, total, 0.0)
        assert tail_demand_ms(execution, 0) == total
        assert tail_demand_ms(execution, rows) == 0.0
        low, high = sorted(min(cut, rows) for cut in cuts)
        more, less = (tail_demand_ms(execution, cut) for cut in (low, high))
        assert 0.0 <= less <= more <= total
