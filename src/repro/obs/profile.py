"""Per-operator execution profiling: the engine's EXPLAIN ANALYZE.

The paper's feedback loop compares estimated vs. observed cost *per
fragment*; this module is the per-operator analogue.  An
:class:`OperatorProfiler` wraps every physical operator's batch stream
and accumulates per-node counters — rows out, batches,
invocations, and cumulative time in both clocks:

* **virtual time** — the ``WorkMeter`` charge (reference-machine ms)
  accrued while the node's stream was being pulled, i.e. the same
  currency the optimizer estimates in, so estimate-vs-actual is a
  dimensionless ratio per operator;
* **wall time** — real ``time.perf_counter`` seconds spent inside the
  node's ``next()`` calls, the number an operator on real hardware
  would see.

Both are *inclusive* (a join's time contains its children's); the
self-time of a node is inclusive minus the sum of its children's
inclusive totals, computed at report time by :class:`PlanProfile`.

Profiling follows the same null-object pattern as ``NULL_REGISTRY``:
the process-global profiler defaults to :data:`NULL_PROFILER`, and the
operator dispatch in ``PhysicalPlan.rows_columnar`` reduces to
one attribute load and one identity check per stream open — nothing per
row.  Enable with :func:`enable_profiling` or the :func:`profiling`
context manager.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class OperatorStats:
    """Cumulative execution counters for one physical operator node."""

    __slots__ = (
        "invocations",
        "rows_out",
        "batches",
        "phys_rows",
        "wall_s",
        "meter_ms",
    )

    def __init__(self) -> None:
        #: number of times the node's stream was opened
        self.invocations = 0
        #: rows emitted across all invocations
        self.rows_out = 0
        #: batches emitted across all invocations
        self.batches = 0
        #: physical slot count under the emitted selection vectors
        #: (equals rows_out when nothing narrowed)
        self.phys_rows = 0
        #: inclusive wall-clock seconds inside next()/close()
        self.wall_s = 0.0
        #: inclusive virtual (WorkMeter) milliseconds accrued while open
        self.meter_ms = 0.0

    @property
    def selectivity(self) -> Optional[float]:
        """Fraction of physical batch slots the selection kept (``None``
        before the node emitted a batch)."""
        if not self.phys_rows:
            return None
        return self.rows_out / self.phys_rows

    def to_dict(self) -> Dict[str, float]:
        payload = {
            "invocations": self.invocations,
            "rows_out": self.rows_out,
            "batches": self.batches,
            "wall_ms": self.wall_s * 1e3,
            "meter_ms": self.meter_ms,
        }
        selectivity = self.selectivity
        if selectivity is not None:
            payload["phys_rows"] = self.phys_rows
            payload["selectivity"] = selectivity
        return payload


class PlanProfile:
    """A queryable view over profiled operator stats.

    Holds (node, stats) pairs in first-execution order.  Node identity
    is object identity — the same plan tree the executor ran.  Self
    times are derived here: inclusive minus the children's inclusive
    totals (never below zero; wall-clock jitter can make the raw
    difference marginally negative).
    """

    def __init__(self, entries: Dict[int, Tuple[object, OperatorStats]]):
        self._entries = entries

    def __len__(self) -> int:
        return len(self._entries)

    def operators(self) -> List[Tuple[object, OperatorStats]]:
        return list(self._entries.values())

    def stats_for(self, node: object) -> Optional[OperatorStats]:
        entry = self._entries.get(id(node))
        return entry[1] if entry is not None else None

    def roots(self) -> List[object]:
        """Profiled nodes that are not descendants of any profiled node.

        In first-execution order: for a federated query, any QCC probe
        queries, then the executed fragment plans (in dispatch order),
        then the II-side merge plan (``FederatedResult.executed_plans``
        pairs them with the query's fragments).
        """
        descendants = set()
        for node, _ in self._entries.values():
            stack = list(node.children())
            while stack:
                child = stack.pop()
                descendants.add(id(child))
                stack.extend(child.children())
        return [
            node
            for node_id, (node, _) in self._entries.items()
            if node_id not in descendants
        ]

    def rows_in(self, node: object) -> Optional[int]:
        """Rows consumed: the sum of the children's rows out (leaves: None)."""
        children = node.children()
        if not children:
            return None
        total = 0
        for child in children:
            stats = self.stats_for(child)
            if stats is not None:
                total += stats.rows_out
        return total

    def _self_time(self, node: object, attr: str) -> float:
        stats = self.stats_for(node)
        if stats is None:
            return 0.0
        value = getattr(stats, attr)
        for child in node.children():
            child_stats = self.stats_for(child)
            if child_stats is not None:
                value -= getattr(child_stats, attr)
        return max(value, 0.0)

    def self_meter_ms(self, node: object) -> float:
        return self._self_time(node, "meter_ms")

    def self_wall_s(self, node: object) -> float:
        return self._self_time(node, "wall_s")

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable dump, one entry per profiled plan root."""

        def node_dict(node: object) -> Dict[str, object]:
            stats = self.stats_for(node)
            payload: Dict[str, object] = {"operator": node.describe()}
            if stats is not None:
                payload.update(stats.to_dict())
                payload["self_meter_ms"] = self.self_meter_ms(node)
                payload["self_wall_ms"] = self.self_wall_s(node) * 1e3
                rows_in = self.rows_in(node)
                if rows_in is not None:
                    payload["rows_in"] = rows_in
            children = [node_dict(c) for c in node.children()]
            if children:
                payload["children"] = children
            return payload

        return {"plans": [node_dict(root) for root in self.roots()]}


class OperatorProfiler:
    """Accumulates :class:`OperatorStats` per physical operator node.

    Counters are cumulative from :func:`enable_profiling` (or
    :meth:`reset`): running several queries over cached plan objects
    sums their work per node, exactly like repeated EXPLAIN ANALYZE
    loops accumulate in ``pg_stat_statements``-style views.
    """

    def __init__(self) -> None:
        self._entries: Dict[int, Tuple[object, OperatorStats]] = {}

    def stats_for(self, node: object) -> OperatorStats:
        entry = self._entries.get(id(node))
        if entry is None:
            entry = (node, OperatorStats())
            self._entries[id(node)] = entry
        return entry[1]

    def capture(self) -> PlanProfile:
        """A profile view over the stats recorded so far (live objects)."""
        return PlanProfile(dict(self._entries))

    def reset(self) -> None:
        self._entries.clear()

    # -- the stream wrapper ----------------------------------------------
    #
    # Wall and virtual deltas are metered around each next() and around
    # the final close().  A child's windows are strictly inside its
    # parent's, so parent totals are inclusive and children never absorb
    # a parent's end-of-stream meter flush, whichever order the
    # generator teardown cascade runs in.

    def profile_columnar(self, node: object, ctx: object) -> Iterator:
        return self._timed(node, node._rows_columnar(ctx), ctx.meter)

    def fused(self, node: object, meter: object) -> "FusedOperator":
        """Open *node*'s window for a run without a stream of its own."""
        return FusedOperator(self.stats_for(node), meter)

    def _timed(self, node: object, it: Iterator, meter: object) -> Iterator:
        stats = self.stats_for(node)
        stats.invocations += 1
        perf = time.perf_counter
        wall = 0.0
        virtual = 0.0
        try:
            while True:
                m0 = meter.total_ms
                t0 = perf()
                try:
                    item = next(it)
                except StopIteration:
                    break
                finally:
                    wall += perf() - t0
                    virtual += meter.total_ms - m0
                stats.batches += 1
                stats.rows_out += len(item)
                stats.phys_rows += item.n_rows
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                m0 = meter.total_ms
                t0 = perf()
                close()
                wall += perf() - t0
                virtual += meter.total_ms - m0
            stats.wall_s += wall
            stats.meter_ms += virtual


class FusedOperator:
    """The counters an operator's own stream would have recorded, for one
    that runs inside a generated loop or a scan read in one pass.

    Each batch its stream would have yielded ends a meter window —
    :meth:`emit`, called when such a batch is done — and the window from
    the last yield to the end of the stream (:meth:`finish`, once the
    operator's end-of-stream charges have landed) ends the run.  The
    deltas are taken at the same meter readings as the stream's own
    would have been, so inclusive ``meter_ms`` is the same float.  Wall
    time is the whole run's.
    """

    __slots__ = ("stats", "meter", "last", "virtual", "started")

    def __init__(self, stats: OperatorStats, meter: object):
        stats.invocations += 1
        self.stats = stats
        self.meter = meter
        self.last = meter.total_ms
        self.virtual = 0.0
        self.started = time.perf_counter()

    def emit(self, rows: int, slots: Optional[int] = None) -> None:
        """One batch of *rows* rows over *slots* slots, yielded now."""
        total = self.meter.total_ms
        self.virtual += total - self.last
        self.last = total
        stats = self.stats
        stats.batches += 1
        stats.rows_out += rows
        stats.phys_rows += rows if slots is None else slots

    def finish(self, since: Optional[float] = None) -> None:
        """End the run: the stream ran out, or (*since* given) it was
        closed early, in a window that opened at meter total *since*."""
        total = self.meter.total_ms
        self.virtual += total - (self.last if since is None else since)
        self.stats.meter_ms += self.virtual
        self.stats.wall_s += time.perf_counter() - self.started


class NullProfiler(OperatorProfiler):
    """The disabled profiler.

    Operator dispatch never routes through it (it short-circuits on an
    identity check), but the timed stream degrades to a bare
    pass-through in case someone calls it anyway.
    """

    def _timed(self, node, it, meter) -> Iterator:
        return it


NULL_PROFILER = NullProfiler()

_ACTIVE: OperatorProfiler = NULL_PROFILER


def get_profiler() -> OperatorProfiler:
    """The process-global active profiler (NULL_PROFILER when disabled)."""
    return _ACTIVE


def enable_profiling() -> OperatorProfiler:
    """Install (and return) a fresh live profiler."""
    global _ACTIVE
    _ACTIVE = OperatorProfiler()
    return _ACTIVE


def disable_profiling() -> None:
    """Reinstall the null profiler (the default state)."""
    global _ACTIVE
    _ACTIVE = NULL_PROFILER


@contextmanager
def profiling():
    """Context manager form: profile everything executed in the block.

    ::

        with profiling() as profiler:
            deployment.integrator.submit(sql)
        print(render_analyzed_plan(plan, profiler.capture()))
    """
    profiler = enable_profiling()
    try:
        yield profiler
    finally:
        disable_profiling()


def render_analyzed_plan(
    plan: object,
    profile: PlanProfile,
    estimate: Optional[Callable[[object], object]] = None,
) -> str:
    """EXPLAIN ANALYZE rendering: one line per operator.

    *estimate*, when given, maps a node to its ``PlanCost`` (typically
    ``lambda n: n.estimate_cost(estimator)``), putting the optimizer's
    rows/cost next to what actually happened — the per-operator version
    of the paper's estimated-vs-observed comparison.  What it raises
    propagates: a broken cost formula is a traceback, not a missing column.
    """
    lines: List[str] = []

    def render(node: object, depth: int) -> None:
        parts = ["  " * depth + node.describe()]
        if estimate is not None:
            cost = estimate(node)
            parts.append(f"(est rows={cost.rows:.0f} total={cost.total:.2f})")
        stats = profile.stats_for(node)
        if stats is not None:
            selectivity = stats.selectivity
            sel_part = (
                f" sel={selectivity:.3f}" if selectivity is not None else ""
            )
            parts.append(
                f"(actual rows={stats.rows_out} batches={stats.batches}"
                f"{sel_part} "
                f"loops={stats.invocations} time={stats.meter_ms:.2f}ms "
                f"self={profile.self_meter_ms(node):.2f}ms "
                f"wall={stats.wall_s * 1e3:.3f}ms)"
            )
        else:
            parts.append("(never executed)")
        lines.append(" ".join(parts))
        for child in node.children():
            render(child, depth + 1)

    render(plan, 0)
    return "\n".join(lines)
