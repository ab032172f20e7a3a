"""Flight recorder: queue-hook span recording + exact latency decomposition.

Two pieces connect the scheduler's queue hooks to the causal span layer:

* :class:`SpanTag` — the opaque tag a dispatching coroutine attaches to
  a :class:`~repro.sim.sched.Work` item.  It names the trace and the
  parent span (the fragment's ``dispatch`` span, or the ``merge`` span
  for II-side work) under which the queue's lifecycle should appear.
* :class:`QueueSpanRecorder` — a :class:`~repro.sim.sched.QueueEvents`
  implementation turning enqueue → complete/cancel into ``queue_wait``
  and ``service`` child spans.  At completion the two
  spans are snapped to the :class:`~repro.sim.sched.Completion`'s exact
  decomposition (``wait_ms`` is the primitive there, so
  queue_wait + service == sojourn holds bit-for-bit); for processor
  sharing the split is the *logical* one — the slowdown in excess of
  dedicated service drawn as wait — since PS has no temporal start-of-
  service boundary.

:func:`decompose_trace` then reads a finished concurrent-runtime trace
back into the flat latency decomposition the flight-recorder artifact
publishes: admission + compile + queue_wait + service (+ hedge_extra)
+ merge, recombined in the runtime's own float association order so the
total is bit-identical to the query's recorded ``response_ms`` for
every non-hedged query (hedged backup wins may carry an honest
``exact: false``).

This module deliberately imports nothing from :mod:`repro.sim` — the
recorder satisfies the ``QueueEvents`` surface structurally, keeping
``repro.obs`` importable on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .trace import NULL_SPAN, QueryTrace, Span


@dataclass(frozen=True)
class SpanTag:
    """Routing label carried by a Work item into the queue hooks."""

    trace: QueryTrace
    parent: Span


class QueueSpanRecorder:
    """QueueEvents observer emitting queue_wait/service child spans.

    One recorder instance is shared by every queue of a runtime; live
    per-job state is keyed by the job handle itself (unique per
    submission).  Jobs without a :class:`SpanTag` are ignored, so
    untagged traffic costs one dict miss per lifecycle hook.
    """

    def __init__(self) -> None:
        #: id(job) -> (queue_wait span, service span).  Keyed by the job
        #: handle's identity and popped at complete/cancel, so a recycled
        #: id cannot alias.
        self._live: Dict[int, Tuple[Span, Span]] = {}

    # -- QueueEvents surface --------------------------------------------

    def on_enqueue(self, queue, job, t_ms: float) -> None:
        """Open both spans at the arrival instant: a zero-width wait,
        then service, which processor sharing gives from the first
        moment."""
        tag = job.tag
        if not isinstance(tag, SpanTag):
            return
        trace = tag.trace
        wait = trace.begin_child(
            tag.parent, "queue_wait", t_ms, server=queue.name
        )
        trace.end(wait, t_ms)
        service = trace.begin_child(
            tag.parent, "service", t_ms, server=queue.name
        )
        self._live[id(job)] = (wait, service)

    def on_complete(self, queue, job, completion) -> None:
        state = self._live.pop(id(job), None)
        if state is None:
            return
        wait, service = state
        # Snap both spans to the completion's exact decomposition:
        # [queued, queued + wait] and [queued + wait, finished], the
        # logical wait/service split that replaces the provisional
        # arrival-instant boundary.
        boundary = completion.queued_ms + completion.wait_ms
        if wait is not NULL_SPAN:
            wait.start_ms = completion.queued_ms
            wait.end_ms = boundary
            wait.annotate(
                wait_ms=completion.wait_ms,
                depth_at_arrival=completion.depth_at_arrival,
            )
        if service is not NULL_SPAN:
            service.start_ms = boundary
            service.end_ms = completion.finished_ms
            service.annotate(
                service_ms=completion.service_ms,
                sojourn_ms=completion.sojourn_ms,
            )

    def on_cancel(self, queue, job, t_ms: float, consumed_ms: float) -> None:
        state = self._live.pop(id(job), None)
        if state is None:
            return
        wait, service = state
        for span in (wait, service):
            if span is NULL_SPAN:
                continue
            if span.end_ms is None:
                span.end_ms = t_ms
            span.annotate(cancelled=True)
        if service is not NULL_SPAN:
            service.annotate(consumed_ms=consumed_ms)


# -- latency decomposition ---------------------------------------------------


def decompose_trace(trace: QueryTrace) -> Dict[str, object]:
    """Flatten a concurrent-runtime query trace into its latency budget.

    The returned components recombine — in the runtime's own float
    association order — to exactly the recorded ``response_ms``:

        total = (compile + ((queue_wait + service) + hedge_extra)) + merge

    ``queue_wait``/``service`` come from the critical fragment (the one
    whose effective latency set ``remote_ms``); ``hedge_extra`` is 0.0
    exactly for unhedged fragments, so the identity is bit-exact there
    by construction.  ``exact`` reports whether the identity held.
    """
    root: Optional[Span] = None
    for span in trace.spans:
        if span.name == "query":
            root = span
            break
    if root is None:
        return {"status": trace.status}
    attrs = root.attributes
    status = str(attrs.get("status", trace.status))
    out: Dict[str, object] = {"status": status}
    if status != "completed":
        if "reason" in attrs:
            out["reason"] = attrs["reason"]
        return out
    pre = attrs["pre_dispatch_ms"]
    remote = attrs["remote_ms"]
    merge = attrs["merge_ms"]
    response = attrs["response_ms"]
    dispatches = [
        child
        for child in root.children
        if child.name == "dispatch" and "sojourn_ms" in child.attributes
    ]
    wait = 0.0
    service = 0.0
    if dispatches:
        critical = max(
            dispatches, key=lambda s: s.attributes["observed_ms"]
        )
        wait = critical.attributes["queue_wait_ms"]
        service = critical.attributes["service_ms"]
    hedge_extra = remote - (wait + service)
    total = (pre + ((wait + service) + hedge_extra)) + merge
    out.update(
        admission_ms=0.0,
        compile_ms=pre,
        queue_wait_ms=wait,
        service_ms=service,
        hedge_extra_ms=hedge_extra,
        merge_ms=merge,
        total_ms=total,
        response_ms=response,
        exact=(total == response),
    )
    return out
