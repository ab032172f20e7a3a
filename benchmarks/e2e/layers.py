"""Outside-in wall-clock layer timer.

The program has no wall-clock layer tracing of its own yet, so the
benchmark times each layer from outside: :func:`traced` swaps every
callable in :data:`TARGETS` for a timing wrapper (class-attribute or
importing-module-name patch) and puts the originals back on exit.  With
tracing off nothing is touched.

A layer's *self time* is its span's duration minus the part covered by
spans it called, kept with a call stack, so the selfs of all layers plus
the self time of the :data:`ROOT` span around the timed region
(``harness.unattributed_s``) add up to the traced wall time.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.fed.concurrent as concurrent
import repro.fed.integrator as integrator
import repro.sqlengine.database as database
from repro.core.routing import QueryCostCalibrator
from repro.fed.admission import AdmissionController
from repro.sim.sched import ServerQueue
from repro.sim.server import RemoteServer
from repro.sqlengine.optimizer import Optimizer
from repro.wrappers.meta import MetaWrapper
from repro.wrappers.relational import RelationalWrapper

#: Layer to wrap the whole timed region in: its self time is the wall
#: time no wrapped layer accounts for (``harness.unattributed_s``).
ROOT = "harness"
#: Spans under this layer carry its call ordinal as their query index.
QUERY_LAYER = "fed.integrator.submit"


class LayerTimer:
    """Span recorder with a call stack for self-time attribution."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Per-layer sums of whatever a target's ``measure`` hook returns
        #: (e.g. rows out of ``Database.run_plan``).
        self.measured: Dict[str, float] = {}
        #: (span id, layer, start_s, end_s, parent span id or None,
        #: ordinal of the enclosing ``fed.integrator.submit`` or None).
        self.spans: List[Tuple[int, str, float, float, Optional[int], Optional[int]]] = []
        # Open frames: [span id, layer, start, child time, query ordinal].
        self._stack: List[list] = []
        self._next_id = 0

    def wrap(
        self,
        layer: str,
        fn: Callable,
        measure: Optional[Callable[[object], float]] = None,
    ) -> Callable:
        """A callable that runs *fn* inside a span named *layer*."""
        stack = self._stack
        is_query = layer == QUERY_LAYER

        def timed(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            if is_query:
                query = self.calls.get(layer, 0)
            else:
                query = stack[-1][4] if stack else None
            frame = [span_id, layer, 0.0, 0.0, query]
            stack.append(frame)
            frame[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    self.measured[layer] = (
                        self.measured.get(layer, 0.0) + measure(result)
                    )
                return result
            finally:
                self._close(perf_counter())

        timed.__wrapped__ = fn
        return timed

    def _close(self, end: float) -> None:
        span_id, layer, start, child_s, query = self._stack.pop()
        duration = end - start
        self.calls[layer] = self.calls.get(layer, 0) + 1
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child_s
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, layer, start, end, parent, query))

    @property
    def wall_s(self) -> float:
        """Duration of the root span(s): the traced wall time."""
        return sum(
            end - start
            for _, layer, start, end, _, _ in self.spans
            if layer == ROOT
        )

    def durations_ms(self, layer: str) -> List[float]:
        return [
            (end - start) * 1000.0
            for _, name, start, end, _, _ in self.spans
            if name == layer
        ]

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, layer, start_s, end_s, parent,
        query (times are ``perf_counter`` seconds)."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, layer, start, end, parent, query in sorted(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "layer": layer,
                            "start_s": start,
                            "end_s": end,
                            "parent": parent,
                            "query": query,
                        }
                    )
                    + "\n"
                )


def _row_count(result) -> float:
    return float(result.row_count)


Database = database.Database
Integrator = integrator.InformationIntegrator

#: (layer, owner, attribute, measure hook) for every wrapped callable.
#: A class owner patches the method for every instance; a module owner
#: patches the name that module imported, leaving other importers of the
#: same function alone (``execute_plan`` inside ``Database.run_plan`` is
#: engine time, the one the integrator imported is merge time).
TARGETS: Tuple[Tuple[str, object, str, Optional[Callable]], ...] = (
    ("sqlengine.explain", Database, "explain", None),
    ("sqlengine.parse", database, "parse", None),
    ("sqlengine.bind", database, "bind", None),
    ("sqlengine.optimize", Optimizer, "optimize", None),
    ("sqlengine.run_plan", Database, "run_plan", _row_count),
    ("wrappers.meta.compile_fragment", MetaWrapper, "compile_fragment", None),
    ("wrappers.meta.execute_option", MetaWrapper, "execute_option", None),
    ("wrappers.meta.note_execution", MetaWrapper, "note_execution", None),
    ("wrappers.relational.plans", RelationalWrapper, "plans", None),
    ("wrappers.relational.translate", RelationalWrapper, "translate", None),
    ("sim.server.explain", RemoteServer, "explain", None),
    ("sim.server.execute_plan", RemoteServer, "execute_plan", None),
    ("sim.server.probe_query", RemoteServer, "probe_query", None),
    ("sim.sched.queue_submit", ServerQueue, "submit", None),
    ("fed.integrator.compile", Integrator, "compile", None),
    ("fed.decomposer.decompose", integrator, "decompose", None),
    ("fed.global_optimizer.enumerate", integrator, "enumerate_global_plans", None),
    ("fed.concurrent.run", concurrent.ConcurrentRuntime, "run", None),
    ("fed.admission.decide", AdmissionController, "decide", None),
    # One build + one execute per merged query, on either lifecycle.
    ("fed.merge", integrator, "build_merge_plan", None),
    ("fed.merge", integrator, "execute_plan", None),
    ("fed.merge", concurrent, "build_merge_plan", None),
    ("fed.merge", concurrent, "execute_plan", None),
    (QUERY_LAYER, Integrator, "submit", None),
    ("core.qcc.calibrate", QueryCostCalibrator, "calibrate", None),
    ("core.qcc.recommend_global", QueryCostCalibrator, "recommend_global", None),
    ("core.qcc.record_execution", QueryCostCalibrator, "record_execution", None),
    ("core.qcc.recalibrate", QueryCostCalibrator, "recalibrate", None),
    ("core.qcc.probe_servers", QueryCostCalibrator, "probe_servers", None),
)

#: Every layer name, in table order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


@contextmanager
def traced(timer: LayerTimer) -> Iterator[LayerTimer]:
    """Install *timer*'s wrappers on every target; restore on exit."""
    originals = []
    try:
        for layer, owner, attr, measure in TARGETS:
            original = vars(owner)[attr]
            originals.append((owner, attr, original))
            setattr(owner, attr, timer.wrap(layer, original, measure))
        yield timer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
