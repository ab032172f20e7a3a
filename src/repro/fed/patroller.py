"""Query Patroller: the federation's submission/completion log.

The patroller intercepts every user query, recording submission and
completion times plus errors.  QCC mines this log for system-down events
(Section 3.3) and the experiments read response-time distributions out
of it.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Iterator, List, Optional

from ..numeric import left_sum
from ..obs import get_obs

_LOG = logging.getLogger("repro.patroller")


class QueryStatus(enum.Enum):
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    #: Rejected by the admission controller before any work was done
    #: (SLO-aware overload shedding; see docs/concurrency.md).
    SHED = "shed"


@dataclass
class PatrolRecord:
    """One query's lifecycle entry."""

    query_id: int
    sql: str
    submitted_ms: float
    completed_ms: Optional[float] = None
    status: QueryStatus = QueryStatus.RUNNING
    error: Optional[str] = None
    label: Optional[str] = None

    @property
    def response_time_ms(self) -> Optional[float]:
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.submitted_ms


class QueryPatroller:
    """Append-only query lifecycle log with simple analytics."""

    def __init__(self) -> None:
        self._records: List[PatrolRecord] = []
        self._next_id = 1

    def submit(
        self, sql: str, t_ms: float, label: Optional[str] = None
    ) -> PatrolRecord:
        record = PatrolRecord(
            query_id=self._next_id, sql=sql, submitted_ms=t_ms, label=label
        )
        self._next_id += 1
        self._records.append(record)
        return record

    def complete(self, record: PatrolRecord, t_ms: float) -> None:
        record.completed_ms = t_ms
        record.status = QueryStatus.COMPLETED
        obs = get_obs()
        obs.metrics.counter("queries_completed_total").inc()
        response = record.response_time_ms
        if response is not None:
            obs.metrics.histogram(
                "query_response_ms", label=record.label or "all"
            ).observe(response)

    def fail(self, record: PatrolRecord, t_ms: float, error: str) -> None:
        record.completed_ms = t_ms
        record.status = QueryStatus.FAILED
        record.error = error
        get_obs().metrics.counter("queries_failed_total").inc()
        _LOG.warning(
            "query %d failed at %.0fms: %s", record.query_id, t_ms, error
        )

    def shed(self, record: PatrolRecord, t_ms: float, reason: str) -> None:
        """Mark a query as shed by admission control (no work performed).

        Sheds are deliberate overload protection, not failures: they get
        their own status and counter so SLO dashboards can tell "we
        chose not to run this" apart from "we tried and broke".
        """
        record.completed_ms = t_ms
        record.status = QueryStatus.SHED
        record.error = reason
        get_obs().metrics.counter(
            "queries_shed_total", label=record.label or "all"
        ).inc()
        _LOG.info(
            "query %d shed at %.0fms: %s", record.query_id, t_ms, reason
        )

    # -- analytics -----------------------------------------------------

    def records(self, label: Optional[str] = None) -> List[PatrolRecord]:
        if label is None:
            return list(self._records)
        return [r for r in self._records if r.label == label]

    def completed(self, label: Optional[str] = None) -> List[PatrolRecord]:
        return [
            r
            for r in self.records(label)
            if r.status is QueryStatus.COMPLETED
        ]

    def mean_response_ms(self, label: Optional[str] = None) -> float:
        times = [
            r.response_time_ms
            for r in self.completed(label)
            if r.response_time_ms is not None
        ]
        if not times:
            return 0.0
        return left_sum(times) / len(times)

    def failure_count(self) -> int:
        return sum(
            1 for r in self._records if r.status is QueryStatus.FAILED
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PatrolRecord]:
        return iter(self._records)
