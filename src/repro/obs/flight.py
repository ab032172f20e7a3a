"""Flight recorder: queue spans + exact latency decomposition.

A queued :class:`~repro.sim.sched.Work` item of a traced query gets
``queue_wait`` and ``service`` child spans from the dispatch strategy
that builds it (``repro.fed.concurrent``): :func:`open_queue_spans` at
the enqueue instant, then :func:`settle_queue_spans` from its
:class:`~repro.sim.sched.Completion` or :func:`cancel_queue_spans` for
a cancelled leg.  A settled pair is the completion's exact
decomposition (``wait_ms`` is the primitive there, so queue_wait +
service == sojourn holds bit-for-bit); for processor sharing the split
is the *logical* one — the slowdown in excess of dedicated service
drawn as wait — since PS has no temporal start-of-service boundary.

:func:`decompose_trace` then reads a finished concurrent-runtime trace
back into the flat latency decomposition the flight-recorder artifact
publishes: admission + compile + queue_wait + service (+ hedge_extra)
+ merge, recombined in the runtime's own float association order so the
total is bit-identical to the query's recorded ``response_ms`` for
every non-hedged query (hedged backup wins may carry an honest
``exact: false``).

This module deliberately imports nothing from :mod:`repro.sim` — a
completion is read by attribute — keeping ``repro.obs`` importable on
its own.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .trace import NULL_SPAN, QueryTrace, Span


def open_queue_spans(
    trace: QueryTrace, parent: Span, server: str, t_ms: float
) -> Tuple[Span, Span]:
    """Under *parent*, a zero-width wait at *t_ms* and an open service
    span: processor sharing serves from the arrival instant."""
    wait = trace.begin_child(parent, "queue_wait", t_ms, server=server)
    trace.end(wait, t_ms)
    service = trace.begin_child(parent, "service", t_ms, server=server)
    return wait, service


def settle_queue_spans(spans: Optional[Tuple[Span, Span]], completion) -> None:
    """Snap *spans* (None: untraced) to [queued, queued + wait] and
    [queued + wait, finished] of *completion*."""
    if spans is None:
        return
    wait, service = spans
    boundary = completion.queued_ms + completion.wait_ms
    if wait is not NULL_SPAN:
        wait.start_ms, wait.end_ms = completion.queued_ms, boundary
    wait.annotate(
        wait_ms=completion.wait_ms,
        depth_at_arrival=completion.depth_at_arrival,
    )
    if service is not NULL_SPAN:
        service.start_ms, service.end_ms = boundary, completion.finished_ms
    service.annotate(
        service_ms=completion.service_ms, sojourn_ms=completion.sojourn_ms
    )


def cancel_queue_spans(
    spans: Optional[Tuple[Span, Span]], t_ms: float, consumed_ms: float
) -> None:
    """Close *spans* (None: untraced) of a leg cancelled at *t_ms* after
    ``consumed_ms`` of dedicated service."""
    if spans is None:
        return
    wait, service = spans
    wait.annotate(cancelled=True)
    if service is not NULL_SPAN:
        service.end_ms = t_ms
    service.annotate(cancelled=True, consumed_ms=consumed_ms)


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
