"""What a meta-wrapper reported to its calibration, recorded test-side.

The meta-wrapper keeps no log of the executions it reports: the
lifecycle hands each settled fragment to ``note_execution``, which
passes it on to the calibration.  A test that compares that feedback
across runs wraps the call on the meta-wrapper instance, the way the
chaos runner wraps ``execute_option``, and keeps what it was handed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class NotedExecution:
    """One ``note_execution`` call: what the calibration learned from."""

    t_ms: float
    fragment_id: str
    fragment_signature: str
    server: str
    plan_signature: str
    estimated_total: float
    observed_ms: float


def noted_executions(meta_wrapper) -> List[NotedExecution]:
    """Every ``note_execution`` call on *meta_wrapper* from the first
    call of this function on, in order; later calls return the same
    list."""
    note = meta_wrapper.note_execution
    log = getattr(note, "noted", None)
    if log is not None:
        return log
    log = []

    def recording(option, result, t_ms):
        log.append(
            NotedExecution(
                t_ms=t_ms,
                fragment_id=option.fragment.fragment_id,
                fragment_signature=option.fragment.signature,
                server=option.server,
                plan_signature=option.plan_signature,
                estimated_total=option.estimated.total,
                observed_ms=result.observed_ms,
            )
        )
        note(option, result, t_ms)

    recording.noted = log
    meta_wrapper.note_execution = recording
    return log
