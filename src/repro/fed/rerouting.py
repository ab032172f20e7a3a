"""Bounded mid-query batch re-routing (ADQUEX-style tuple routing).

QCC steers queries only at compile time, so a calibration bump that
lands mid-flight is wasted on every fragment already dispatched.  ADQUEX
(see PAPERS.md) routes *tuples* adaptively while the query runs; this
module reproduces a bounded version of that idea on batch boundaries:

* A dispatched fragment's result is cut into uniform ``batch_rows``
  batches, and each batch carries the same row-proportional share of
  the fragment's observed demand, ``observed_ms * (batch_rows /
  row_count)``.  The boundary after k batches is k shares folded from
  zero, and the last boundary is ``observed_ms`` itself, so service
  that covers the whole demand always finds the fragment drained.
* When the calibration epoch bumps mid-flight (recalibration folding
  fresh factors, or an availability flip — both bump the shared
  :class:`~repro.core.epoch.CalibrationEpoch`), the fragment
  **checkpoints** the batches whose boundary its consumed service has
  reached, quantising *down* to a batch boundary: partially transferred
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
decisions are pure functions of the fragment's row count and demand,
the batch size and the interrupt instant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..sim.server import RemoteExecution
from ..sqlengine import Row

#: Relative slack when testing a consumed demand against a cumulative
#: batch boundary (float accumulation at the interrupt instant).
_BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class Checkpoint:
    """Consumed-batch checkpoint at a migration instant."""

    #: First row the migration target must produce (rows below are kept
    #: from the primary).
    cut_row: int
    #: Fully consumed batches, counted from the first row.
    batches_kept: int
    #: The kept batches' summed demand; service consumed beyond this is
    #: the partial-batch waste the target re-ships.
    kept_demand_ms: float


def tail_demand_ms(execution: RemoteExecution, cut_row: int) -> float:
    """The target's demand for re-producing rows ``[cut_row:]``.

    The replica executed the full fragment (its demonstrated demand is
    ``observed_ms``); the migrated leg only ships the unshipped tail, so
    it is charged the total less the kept rows' proportional share.
    """
    total = execution.observed_ms
    return total - total * (cut_row / execution.row_count)


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

    def migratable(self, execution: RemoteExecution) -> bool:
        """Does *execution* have a batch boundary to migrate at?"""
        return execution.row_count > self.batch_rows

    def checkpoint(
        self, execution: RemoteExecution, consumed_ms: float
    ) -> Optional[Checkpoint]:
        """Quantise *consumed_ms* of a migratable *execution*'s service
        DOWN to a batch boundary, or None when the fragment has drained.

        A batch counts as consumed only when its boundary fits inside
        the consumed service (with a relative slack for the float
        accumulation at the interrupt instant): a partially served batch
        is never checkpointed, so the target always restarts from a
        clean row boundary.
        """
        limit = consumed_ms + _BOUNDARY_EPS * max(1.0, abs(consumed_ms))
        if limit >= execution.observed_ms:
            return None
        rows, step = execution.row_count, self.batch_rows
        share = execution.observed_ms * (step / rows)
        kept, kept_ms = 0, 0.0
        while (kept + 1) * step < rows and kept_ms + share <= limit:
            kept_ms += share
            kept += 1
        return Checkpoint(
            cut_row=kept * step, batches_kept=kept, kept_demand_ms=kept_ms
        )

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

