"""The explain table: compile-time records of chosen global plans.

In DB2 II only the winner plan lands in the explain table (the paper
leans on this: QCC must *derive* alternatives itself because II does not
store them).  We reproduce that behaviour: one record per compilation,
winner only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .global_optimizer import GlobalPlan


@dataclass(frozen=True)
class ExplainRecord:
    """One compiled query's winner plan and costs."""

    query_id: int
    sql: str
    compiled_at_ms: float
    plan: GlobalPlan
    fragment_costs: Tuple[Tuple[str, str, float], ...]
    """(fragment_id, server, calibrated total cost) per chosen fragment."""

    @property
    def estimated_total(self) -> float:
        return self.plan.total_cost


class ExplainTable:
    """Append-only store of compile-time winner plans."""

    def __init__(self) -> None:
        self._records: List[ExplainRecord] = []

    def record(
        self,
        query_id: int,
        sql: str,
        compiled_at_ms: float,
        plan: GlobalPlan,
    ) -> ExplainRecord:
        record = ExplainRecord(
            query_id=query_id,
            sql=sql,
            compiled_at_ms=compiled_at_ms,
            plan=plan,
            fragment_costs=tuple(
                (
                    choice.fragment.fragment_id,
                    choice.server,
                    choice.calibrated.total,
                )
                for choice in plan.choices
            ),
        )
        self._records.append(record)
        return record

    def latest(self) -> Optional[ExplainRecord]:
        return self._records[-1] if self._records else None

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)
