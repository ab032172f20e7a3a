"""Meta-wrapper (MW): the observation point between II and the wrappers.

Per Section 2 of the paper, MW records at compile time (a) incoming
federated statements, (b) estimated costs, (c) outgoing query fragments
and (d) their server mappings; at run time it records (e) per-fragment
response times.  Everything is forwarded to QCC, and — crucially — MW is
where calibration is *applied*: estimated costs pass through
``qcc.calibrate`` before II's global optimizer ever sees them, so the
optimizer is influenced without being modified.  There is always a
calibration to ask (:class:`~repro.core.calibration.Calibration`; the
base class is the identity), and what MW and the calibration say about
a fragment is written to the :class:`~repro.obs.QueryTrace` the caller
hands in — the query's own, whatever else is in flight.
"""

from __future__ import annotations

import math
from typing import Collection, Dict, List, Mapping, Optional, Sequence, Tuple

from ..obs import NULL_TRACE, QueryTrace, get_obs
from ..sqlengine import PlanCandidate, PlanCost, ServerProfile
from ..sim import RemoteExecution, ServerUnavailable
from ..fed.decomposer import QueryFragment
from ..fed.global_optimizer import FragmentOption
from ..core.calibration import Calibration
from .base import Wrapper
from .relational import RelationalWrapper

#: Estimate substituted when a wrapper withholds cost (file wrapper,
#: signalled by ``PlanCandidate.cost is None``).  A zero-valued cost is
#: *not* unknown — an empty table legitimately estimates to zero.
DEFAULT_UNKNOWN_ESTIMATE = PlanCost(
    first_tuple=1.0, total=100.0, rows=1000.0, width_bytes=64.0
)


#: Relative slack taken off an explain bound: the float sums behind two
#: servers' totals may differ in their last bits.
_BOUND_SLACK = 1e-9


class _ExplainBound:
    """One fragment's explain bound (docs/cost_model.md, "The explain
    bound"): the *reference* is the relational server with the largest
    ``min(cpu_speed, io_speed)``; its *peers*, the other relational
    servers whose catalogs hold equal content, enumerate the same plans
    under their own profiles, so its best estimate bounds theirs."""

    def __init__(
        self,
        reference: str,
        profiles: Mapping[str, ServerProfile],
        peers: Collection[str],
    ):
        self.reference = reference
        self.profiles = profiles
        self.peers = peers
        #: The reference's best candidate, once it is explained.
        self.best: Optional[PlanCandidate] = None

    @classmethod
    def over(cls, wrappers: Mapping[str, Wrapper], servers: Sequence[str]):
        """The bound among *servers*, or None when no two share one."""
        databases = {
            server: wrappers[server].server.database
            for server in servers
            if isinstance(wrappers[server], RelationalWrapper)
        }
        profiles = {s: database.profile for s, database in databases.items()}
        if not profiles:
            return None
        reference = max(
            profiles,
            key=lambda s: min(profiles[s].cpu_speed, profiles[s].io_speed),
        )
        content = databases.pop(reference).catalog.content()
        peers = {
            s for s, d in databases.items() if d.catalog.content() == content
        }
        return cls(reference, profiles, peers) if peers else None

    def lowest(self, peer: str) -> PlanCost:
        """An estimate no plan of the space undercuts at *peer*: with
        rho = min(cpu_r / cpu_s, io_r / io_s), cost_s(p) >= rho * cost_r(p)
        >= rho * best_r."""
        reference, other = self.profiles[self.reference], self.profiles[peer]
        rho = min(
            reference.cpu_speed / other.cpu_speed,
            reference.io_speed / other.io_speed,
        )
        best = self.best.cost
        total = rho * best.total * (1.0 - _BOUND_SLACK)
        return PlanCost(0.0, total, best.rows, best.width_bytes)


#: Per second-leg kind: the cancelled leg's counter, its waste
#: histogram and its trace event.
_CANCELLED_LEG = {
    "hedge": (
        "mw_hedge_cancelled_total", "mw_hedge_wasted_ms", "hedge_cancelled"
    ),
    "reroute": (
        "mw_reroute_cancelled_total", "mw_reroute_wasted_ms", "rerouted"
    ),
}


class MetaWrapper:
    """Middleware between the integrator and the per-source wrappers."""

    def __init__(
        self,
        wrappers: Mapping[str, Wrapper],
        qcc: Optional[Calibration] = None,
    ):
        self.wrappers: Dict[str, Wrapper] = dict(wrappers)
        # The one place MW and a calibration are wired, both ways.
        self.qcc = qcc or Calibration()
        self.qcc.bind_meta_wrapper(self)

    def _wrapper(self, server: str, t_ms: float) -> Wrapper:
        wrapper = self.wrappers.get(server)
        if wrapper is None:
            raise ServerUnavailable(server, t_ms)
        return wrapper

    # -- compile time -------------------------------------------------------

    def compile_fragment(
        self,
        fragment: QueryFragment,
        t_ms: float,
        trace: QueryTrace = NULL_TRACE,
        admissible: Optional[Collection[str]] = None,
    ) -> List[FragmentOption]:
        """Candidate plans for *fragment*, their estimated costs
        calibrated, in candidate-server order.

        Only *admissible* servers (None: every candidate) are asked.  A
        server is skipped unexplained when the calibration marks it down,
        or when the explain bound proves that its calibrated best cost
        lies above the calibration's routing band (docs/cost_model.md,
        "The explain bound"); every other server is explained.
        """
        obs = get_obs()
        qcc = self.qcc
        servers = [
            server
            for server in fragment.candidate_servers
            if server in self.wrappers
            and (admissible is None or server in admissible)
        ]
        skipped: Dict[str, Dict[str, object]] = {
            server: {"reason": "unavailable"}
            for server in servers
            if not qcc.is_available(server, t_ms)
        }
        order = [server for server in servers if server not in skipped]
        # Every candidate of a peer carries the reference's rows, so the
        # merge prices a skipped option as it does an explained one.
        band = qcc.routing_band()
        bound = (
            None if band is None else _ExplainBound.over(self.wrappers, order)
        )
        if bound is not None:
            order.sort(key=lambda server: server != bound.reference)
        explained: Dict[str, List[FragmentOption]] = {}
        best = math.inf
        for server in order:
            if bound is not None and server in bound.peers:
                lowest = qcc.calibrate(
                    server, fragment.signature, bound.lowest(server)
                ).total
                threshold = (1.0 + band) * best
                if lowest > threshold:
                    skipped[server] = dict(
                        reason="bound",
                        bound=lowest,
                        reference=bound.reference,
                        threshold=threshold,
                    )
                    continue
            try:
                candidates = self.wrappers[server].plans(fragment.sql, t_ms)
            except ServerUnavailable:
                qcc.record_error(server, t_ms)
                if bound is not None and server == bound.reference:
                    bound = None
                continue
            if bound is not None and server == bound.reference:
                bound.best = candidates[0]
            found = explained[server] = []
            for candidate in candidates:
                estimated = candidate.cost
                if estimated is None:
                    estimated = DEFAULT_UNKNOWN_ESTIMATE
                option = FragmentOption(
                    fragment=fragment,
                    server=server,
                    plan=candidate.plan,
                    estimated=estimated,
                    calibrated=qcc.calibrate(
                        server, fragment.signature, estimated
                    ),
                )
                found.append(option)
                qcc.record_compile(server, fragment.signature, option)
                best = min(best, option.calibrated.total)

        # Events and options in candidate-server order, whatever the
        # order of the explains.
        options: List[FragmentOption] = []
        for server in servers:
            if server in skipped:
                event = skipped[server]
                trace.event(
                    "server_skipped",
                    t_ms,
                    server=server,
                    fragment=fragment.fragment_id,
                    **event,
                )
                obs.metrics.counter(
                    "mw_servers_skipped_total",
                    server=server,
                    reason=event["reason"],
                ).inc()
            for option in explained.get(server, ()):
                estimated = option.estimated.total
                trace.event(
                    "calibration_lookup",
                    t_ms,
                    server=server,
                    fragment=fragment.fragment_id,
                    estimated_total=estimated,
                    calibrated_total=option.calibrated.total,
                    calibration_factor=(
                        option.calibrated.total / estimated
                        if estimated > 0
                        else None
                    ),
                )
                options.append(option)
        return options

    # -- run time ------------------------------------------------------------

    def execute_option(
        self,
        option: FragmentOption,
        t_ms: float,
        siblings: Sequence[FragmentOption] = (),
        trace: QueryTrace = NULL_TRACE,
    ) -> Tuple[FragmentOption, RemoteExecution]:
        """Execute a fragment option; returns (actually-run option, result).

        *siblings* are the options the query's own compilation admitted
        for this fragment (:meth:`GlobalPlan.siblings_of`): the
        calibration's fragment-level load balancer may swap the option
        for an *identical* plan on an equivalent server among them
        (Section 4.1) just before dispatch.  None given, none swapped.

        Nothing is reported here.  The caller learns the fragment's raw
        service demand, settles it (through a capacity queue, when other
        queries contend) and then reports it with :meth:`note_execution`
        — so under load the calibrator observes contention, exactly as
        the paper's probe model intends — or, when the server failed
        (:class:`ServerUnavailable`), with :meth:`note_failure`.
        """
        obs = get_obs()
        if siblings:
            substituted = self.qcc.substitute(option, siblings, t_ms)
            if substituted is not option:
                obs.metrics.counter(
                    "mw_substitutions_total", server=substituted.server
                ).inc()
                trace.event(
                    "substitution",
                    t_ms,
                    fragment=option.fragment.fragment_id,
                    from_server=option.server,
                    to_server=substituted.server,
                )
            option = substituted
        return option, self._wrapper(option.server, t_ms).execute(
            option.plan, t_ms
        )

    def note_execution(
        self,
        option: FragmentOption,
        result: RemoteExecution,
        t_ms: float,
    ) -> None:
        """Record one fragment execution (metrics, QCC).

        ``result.observed_ms`` is what QCC learns from; the concurrent
        runtime passes a queue-inflated copy of the raw execution here.
        """
        obs = get_obs()
        obs.metrics.counter(
            "mw_fragment_executions_total", server=option.server
        ).inc()
        obs.metrics.histogram(
            "mw_fragment_response_ms", server=option.server
        ).observe(result.observed_ms)
        self.qcc.record_execution(
            server=option.server,
            fragment_signature=option.fragment.signature,
            plan_signature=option.plan_signature,
            estimated=option.estimated,
            observed_ms=result.observed_ms,
            t_ms=t_ms,
        )

    def note_failure(self, server: str, t_ms: float) -> None:
        """Record a fragment execution *server* failed (metrics, QCC)."""
        self.qcc.record_error(server, t_ms)
        get_obs().metrics.counter(
            "mw_fragment_errors_total", server=server
        ).inc()

    def note_cancelled_leg(
        self,
        kind: str,
        option: FragmentOption,
        wasted_ms: float,
        t_ms: float,
        trace: QueryTrace = NULL_TRACE,
        **event: object,
    ) -> None:
        """Record the cancelled leg of a raced dispatch: *kind* is
        ``"hedge"`` (the race's loser ran at *option*) or ``"reroute"``
        (the primary at *option* was migrated off mid-flight).

        A cancelled partial execution would poison the observed/
        estimated ratio, so it never reaches :meth:`note_execution` or the
        calibrator — the strategy feeds those
        separately (the hedge winner at its effective latency; a
        migrated primary's full demonstrated demand).  The cancelled leg
        leaves just metrics and a trace event: *wasted_ms* is the
        dedicated service a hedge loser consumed, or the partial-batch
        service past the checkpoint that a migration target re-ships.
        """
        counter, histogram, event_name = _CANCELLED_LEG[kind]
        obs = get_obs()
        obs.metrics.counter(counter, server=option.server).inc()
        obs.metrics.histogram(histogram).observe(wasted_ms)
        trace.event(
            event_name,
            t_ms,
            fragment=option.fragment.fragment_id,
            **event,
            wasted_ms=wasted_ms,
        )

    # -- probes ----------------------------------------------------------

    def probe(self, server: str, t_ms: float) -> float:
        """Daemon probe of one server, through its wrapper."""
        return self._wrapper(server, t_ms).ping(t_ms)

    def probe_ratio(self, server: str, t_ms: float):
        """Optional (estimated, observed) pair from a calibration probe.

        Returns None when the wrapper cannot produce one (file sources).
        """
        return self._wrapper(server, t_ms).probe_ratio(t_ms)

    def server_names(self) -> List[str]:
        return sorted(self.wrappers)
