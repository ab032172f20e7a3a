"""Bounded mid-query batch re-routing (ADQUEX-style tuple routing).

QCC steers queries only at compile time, so a calibration bump that
lands mid-flight is wasted on every fragment already dispatched.  ADQUEX
(see PAPERS.md) routes *tuples* adaptively while the query runs; this
module reproduces a bounded version of that idea on batch boundaries:

* A dispatched fragment's service demand is divided into **batch
  spans** — uniform ``batch_rows`` chunks of the result — with
  row-proportional demand attribution that sums bit-for-bit to the
  fragment's total (:func:`repro.sim.server.exact_split`).
* When the calibration epoch bumps mid-flight (recalibration folding
  fresh factors, or an availability flip — both bump the shared
  :class:`~repro.core.epoch.CalibrationEpoch`), the fragment
  **checkpoints** the batches whose cumulative demand it has already
  consumed, quantising *down* to a batch boundary: partially transferred
  batches are re-shipped by the target, never spliced.
* The *remaining* scan range is re-planned onto the next replica of
  the fragment's Section 4.1 cluster (the one replica-choice rule
  substitution and hedging use,
  :meth:`repro.core.load_balance.FragmentLoadBalancer.ranked_cluster`)
  and the primary's unserved demand is released back to its queue —
  the migration is the interrupt leg of the same
  :class:`~repro.sim.sched.RacedWork` request whose timer leg hedges.
* Merged output is ``primary_rows[:cut] + replica_rows[cut:]``.  Replicas
  run identical plans over identical data with deterministic engines, so
  the merge is byte-identical to either side's full result — the
  differential migration harness *proves* this against the fault-free
  oracle rather than assuming it.

Policy bounds (what makes this "bounded" rather than full tuple
routing): at most **one** second leg per fragment per dispatch (a
migration or a hedge backup, whichever launches first), targets must
run the *identical* plan within the exchangeability band, the
checkpoint only ever moves backward to a batch boundary, and a fragment
whose batches have all shipped declines to move.

Calibrator discipline: a migrated fragment still reports its *primary*
execution's raw demonstrated demand (the simulation knows it exactly),
so QCC's per-server feedback is bit-identical to the run where no
migration happened.  The migration improves the query's response time
without ever teaching the calibrator counterfactual costs; the wasted
partial-batch service is surfaced through metrics instead
(``mw_reroute_wasted_ms``).

Determinism: the policy consumes no randomness and no wall-clock; all
decisions are pure functions of the schedule and the interrupt instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..numeric import left_sum
from ..sim.server import RemoteExecution, exact_split, transfer_spans
from ..sqlengine import Row

#: Relative slack when testing a consumed demand against a cumulative
#: batch boundary (float accumulation at the interrupt instant).
_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class BatchSpan:
    """One checkpointable unit of a dispatched fragment's service."""

    start_row: int
    stop_row: int
    #: This span's share of the fragment's total observed demand; the
    #: shares of a schedule sum bit-for-bit to the total (exact_split).
    demand_ms: float

    @property
    def row_count(self) -> int:
        return self.stop_row - self.start_row


def batch_schedule(
    execution: RemoteExecution, batch_rows: int
) -> List[BatchSpan]:
    """The fragment's checkpoint schedule: row spans + demand shares.

    The result is chunked uniformly by *batch_rows* and the demand is
    split by row count.  The spans' demands recompose ``observed_ms``
    exactly, so checkpoint arithmetic inherits the simulation's
    bit-exactness discipline.
    """
    spans = transfer_spans(execution.row_count, batch_rows)
    demands = exact_split(
        execution.observed_ms,
        [float(stop - start) for start, stop in spans],
    )
    return [
        BatchSpan(start_row=start, stop_row=stop, demand_ms=demand)
        for (start, stop), demand in zip(spans, demands)
    ]


@dataclass(frozen=True)
class Checkpoint:
    """Consumed-batch checkpoint at a migration instant."""

    #: First row the migration target must produce (rows below are kept
    #: from the primary).
    cut_row: int
    #: Fully consumed batches (prefix of the schedule).
    batches_kept: int
    #: The kept batches' summed demand; service consumed beyond this is
    #: the partial-batch waste the target re-ships.
    kept_demand_ms: float


def checkpoint_consumed(
    schedule: List[BatchSpan], consumed_ms: float
) -> Checkpoint:
    """Quantise *consumed_ms* of service DOWN to a batch boundary.

    A batch counts as consumed only when the cumulative demand through
    it fits inside the consumed service (with one-ulp slack for the
    float accumulation at the interrupt instant) — a partially served
    batch is never checkpointed, so the target always restarts from a
    clean row boundary.
    """
    slack = _BOUNDARY_EPS * max(1.0, abs(consumed_ms))
    cut_row = 0
    kept = 0
    acc = 0.0
    for span in schedule:
        acc += span.demand_ms
        if acc <= consumed_ms + slack:
            cut_row = span.stop_row
            kept += 1
        else:
            break
    kept_demand = left_sum(span.demand_ms for span in schedule[:kept])
    return Checkpoint(
        cut_row=cut_row, batches_kept=kept, kept_demand_ms=kept_demand
    )


def tail_demand_ms(execution: RemoteExecution, cut_row: int) -> float:
    """The target's demand for re-producing rows ``[cut_row:]``.

    The replica executed the full fragment (its demonstrated demand is
    ``observed_ms``); the migrated leg only ships the unshipped tail, so
    it is charged the tail's row-proportional exact share of that demand.
    """
    total_rows = execution.row_count
    if total_rows <= 0 or cut_row <= 0:
        return execution.observed_ms
    if cut_row >= total_rows:
        return 0.0
    shares = exact_split(
        execution.observed_ms,
        [float(cut_row), float(total_rows - cut_row)],
    )
    return max(0.0, shares[1])


def merge_partial_rows(
    primary_rows: List[Row], replica_rows: List[Row], cut_row: int
) -> List[Row]:
    """Deterministic partial merge: primary prefix + replica suffix.

    Both sides ran the identical plan, so their row *counts* must agree;
    a mismatch means the replica diverged from the primary and the
    migration result would be silently wrong — fail loudly instead.
    """
    if len(replica_rows) != len(primary_rows):
        raise ValueError(
            "re-route target returned "
            f"{len(replica_rows)} rows for an identical plan that "
            f"produced {len(primary_rows)} at the primary"
        )
    return list(primary_rows[:cut_row]) + list(replica_rows[cut_row:])


class ReroutePolicy:
    """Decides and accounts for mid-query migrations.

    *batch_rows* is the checkpoint granularity (rows); a runtime without
    a policy does not re-route.
    """

    def __init__(self, batch_rows: int):
        if batch_rows < 1:
            raise ValueError(f"batch_rows must be >= 1, got {batch_rows}")
        self.batch_rows = batch_rows
        # -- lifetime counters (mirrored into obs by the runtime) -------
        self.fired = 0
        self.migrated_rows = 0
        self.wasted_ms = 0.0
        self.declined: Dict[str, int] = {}

    # -- decisions -------------------------------------------------------

    def checkpoint(
        self, schedule: List[BatchSpan], consumed_ms: float
    ) -> Optional[Checkpoint]:
        """Where a migration at *consumed_ms* of service would cut, or
        None when every batch has already shipped."""
        point = checkpoint_consumed(schedule, consumed_ms)
        if point.batches_kept >= len(schedule):
            return None
        return point

    # -- bookkeeping -----------------------------------------------------

    def note_fired(self, migrated_rows: int, wasted_ms: float) -> None:
        self.fired += 1
        self.migrated_rows += migrated_rows
        self.wasted_ms += wasted_ms

    def note_declined(self, reason: str) -> None:
        self.declined[reason] = self.declined.get(reason, 0) + 1

    def stats(self) -> Dict[str, float]:
        """Lifetime re-route counters in report shape (the single source
        the load generator and CLI surface)."""
        return {
            "fired": float(self.fired),
            "declined": float(sum(self.declined.values())),
            "migrated_rows": float(self.migrated_rows),
            "wasted_ms": round(self.wasted_ms, 3),
        }

