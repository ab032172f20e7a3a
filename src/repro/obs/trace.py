"""Per-query tracing: structured span events over the federated pipeline.

A :class:`QueryTrace` is a tree of :class:`Span` objects following one
federated query through decompose → plan enumeration → calibration
lookup → route decision → fragment dispatch → merge.  Spans carry
arbitrary attributes (estimated cost, active calibration factor,
observed ms, ...) and virtual-clock timestamps, and export to plain
dicts / JSON.

A query's trace is *passed*: whoever opened it (the integrator) hands
it to the components below (the meta-wrapper) as an argument, so an
event lands in the trace of the query it is about however many queries
are interleaved — there is no "current" trace to keep pointed at the
right one.  :data:`NULL_TRACER` and :data:`NULL_TRACE` implement the same
surface as no-ops — the default until ``repro.obs.configure()`` enables
tracing, and the default of every ``trace`` parameter.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

#: Default per-trace span budget.  Generous — a concurrent-runtime query
#: with f fragments emits ~4 + 3f spans — but finite, so a pathological
#: retry loop under load cannot grow one trace without bound.  Dropped
#: spans are *counted* (``spans_dropped`` and, when metrics are live,
#: the ``trace_spans_dropped_total`` counter), never silently truncated.
DEFAULT_MAX_SPANS = 4096

#: How many finished traces a :class:`Tracer` retains.
TRACE_CAPACITY = 64


class Span:
    """One timed step of a query, with attributes and child spans."""

    __slots__ = ("name", "start_ms", "end_ms", "attributes", "children")

    def __init__(self, name: str, start_ms: float, **attributes: object):
        self.name = name
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes)
        self.children: List[Span] = []

    def annotate(self, **attributes: object) -> None:
        self.attributes.update(attributes)

    @property
    def duration_ms(self) -> Optional[float]:
        if self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def find(self, name: str) -> List["Span"]:
        """All descendant spans (including self) named *name*."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "duration_ms": self.duration_ms,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.children:
            payload["children"] = [c.to_dict() for c in self.children]
        return payload


class QueryTrace:
    """The span tree of one federated query."""

    def __init__(
        self,
        query_id: int,
        sql: str,
        started_ms: float,
        max_spans: Optional[int] = DEFAULT_MAX_SPANS,
    ):
        self.query_id = query_id
        self.sql = sql
        self.started_ms = started_ms
        self.finished_ms: Optional[float] = None
        self.status = "running"
        self.spans: List[Span] = []
        self.max_spans = max_spans
        #: Spans refused because the trace hit ``max_spans`` — explicit
        #: accounting so an over-budget trace is detectable, not just
        #: mysteriously short.
        self.spans_dropped = 0
        self.span_count = 0
        #: Tracer-installed drop notifier (feeds the process-wide
        #: counter); None when the trace is free-standing.
        self._on_drop: Optional[Callable[[], None]] = None
        self._open: List[Span] = []

    # -- span API --------------------------------------------------------

    def _admit(self) -> bool:
        """Reserve capacity for one span; count the drop if full."""
        if self.max_spans is not None and self.span_count >= self.max_spans:
            self.spans_dropped += 1
            if self._on_drop is not None:
                self._on_drop()
            return False
        self.span_count += 1
        return True

    def begin(self, name: str, t_ms: float, **attributes: object) -> Span:
        """Open a span; it nests under the innermost still-open span."""
        if not self._admit():
            return NULL_SPAN
        span = Span(name, t_ms, **attributes)
        if self._open:
            self._open[-1].children.append(span)
        else:
            self.spans.append(span)
        self._open.append(span)
        return span

    def begin_child(
        self, parent: Span, name: str, t_ms: float, **attributes: object
    ) -> Span:
        """Open a span as an explicit child of *parent*, bypassing the
        open-span stack.

        This is how concurrent siblings are built: the runtime's
        per-fragment dispatch spans (and the queue hooks' queue_wait /
        service spans beneath them) overlap in virtual time, so stack
        nesting would interleave them wrongly.  Close with :meth:`end`
        — a non-stack span just gets its ``end_ms`` set.
        """
        if parent is NULL_SPAN or not self._admit():
            if parent is NULL_SPAN:
                # The parent was itself dropped; this span is lost too.
                self.spans_dropped += 1
                if self._on_drop is not None:
                    self._on_drop()
            return NULL_SPAN
        span = Span(name, t_ms, **attributes)
        parent.children.append(span)
        return span

    def end(self, span: Span, t_ms: float, **attributes: object) -> Span:
        """Close *span* (and, for stack spans, anything left open
        beneath it); spans opened with :meth:`begin_child` are closed in
        place without touching the stack."""
        if span is NULL_SPAN:
            return span
        span.end_ms = t_ms
        if attributes:
            span.annotate(**attributes)
        if any(open_span is span for open_span in self._open):
            while self._open:
                top = self._open.pop()
                if top is span:
                    break
        return span

    def event(self, name: str, t_ms: float, **attributes: object) -> Span:
        """A zero-duration span at *t_ms* under the current open span."""
        if not self._admit():
            return NULL_SPAN
        span = Span(name, t_ms, **attributes)
        span.end_ms = t_ms
        if self._open:
            self._open[-1].children.append(span)
        else:
            self.spans.append(span)
        return span

    def finish(self, t_ms: float, status: str = "completed") -> None:
        while self._open:
            self._open.pop().end_ms = t_ms
        self.finished_ms = t_ms
        self.status = status

    # -- reading ---------------------------------------------------------

    def find(self, name: str) -> List[Span]:
        found: List[Span] = []
        for span in self.spans:
            found.extend(span.find(name))
        return found

    @property
    def response_ms(self) -> Optional[float]:
        if self.finished_ms is None:
            return None
        return self.finished_ms - self.started_ms

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "query_id": self.query_id,
            "sql": self.sql,
            "status": self.status,
            "started_ms": self.started_ms,
            "finished_ms": self.finished_ms,
            "response_ms": self.response_ms,
            "spans": [span.to_dict() for span in self.spans],
        }
        if self.spans_dropped:
            payload["spans_dropped"] = self.spans_dropped
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, default=str)


class Tracer:
    """Creates traces and retains the most recent completed ones."""

    def __init__(self) -> None:
        self.finished: Deque[QueryTrace] = deque(maxlen=TRACE_CAPACITY)
        self.max_spans = DEFAULT_MAX_SPANS
        #: Total spans dropped across every trace this tracer started.
        self.spans_dropped = 0
        #: Wired by ``repro.obs.configure`` to the live registry's
        #: ``trace_spans_dropped_total`` counter (None = metrics off).
        self.drop_counter = None

    def _note_drop(self) -> None:
        self.spans_dropped += 1
        if self.drop_counter is not None:
            self.drop_counter.inc()

    def start(self, query_id: int, sql: str, t_ms: float) -> QueryTrace:
        trace = QueryTrace(query_id, sql, t_ms, max_spans=self.max_spans)
        trace._on_drop = self._note_drop
        return trace

    def finish(
        self, trace: QueryTrace, t_ms: float, status: str = "completed"
    ) -> QueryTrace:
        trace.finish(t_ms, status)
        self.finished.append(trace)
        return trace

    def last(self) -> Optional[QueryTrace]:
        return self.finished[-1] if self.finished else None


class _NullSpan(Span):
    """Shared inert span: annotations vanish, children never attach."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("null", 0.0)

    def annotate(self, **attributes: object) -> None:
        pass


class _NullTrace(QueryTrace):
    """Accepts the full trace surface, records nothing."""

    def __init__(self) -> None:
        super().__init__(query_id=0, sql="", started_ms=0.0)

    def begin(self, name: str, t_ms: float, **attributes: object) -> Span:
        return NULL_SPAN

    def begin_child(
        self, parent: Span, name: str, t_ms: float, **attributes: object
    ) -> Span:
        return NULL_SPAN

    def end(self, span: Span, t_ms: float, **attributes: object) -> Span:
        return span

    def event(self, name: str, t_ms: float, **attributes: object) -> Span:
        return NULL_SPAN

    def finish(self, t_ms: float, status: str = "completed") -> None:
        pass


class NullTracer(Tracer):
    """The disabled tracer: every start hands back the shared null trace."""

    def start(self, query_id: int, sql: str, t_ms: float) -> QueryTrace:
        return NULL_TRACE

    def finish(
        self, trace: QueryTrace, t_ms: float, status: str = "completed"
    ) -> QueryTrace:
        return trace


NULL_SPAN = _NullSpan()
NULL_TRACE = _NullTrace()
NULL_TRACER = NullTracer()
