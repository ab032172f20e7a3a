"""The II–MW–QCC seam (Figures 1–2, Section 2): II asks MW, MW asks a
calibration.

:class:`Calibration` is everything the integrator, the meta-wrapper and
the dispatch strategies ever ask of one, and it is always there: a
federation without a QCC holds this base class, whose answers are the
identity — every server available, costs and choices handed back as the
very objects that came in, factors exactly ``1.0`` — so no caller asks
whether a calibration exists before calling it.
:class:`~repro.core.routing.QueryCostCalibrator` gives each call its
paper meaning.

=====================  ======================================================
``epoch``               the cost surface's version, shared with plan caches
``bind_meta_wrapper``   called by MW on attach; gives daemons a probe path
``is_available``        availability gate used while collecting options
``routing_band``        band routing stays inside; None: explain every server
``calibrate``           scale a fragment's estimated cost (Figure 5)
``record_compile``      compile-time record (a)-(d) of Section 2
``record_execution``    runtime record (e): response time of a fragment
``record_error``        server failure observed by MW
``substitute``          fragment-level load-balance rotation (Section 4.1)
``ranked_cluster``      the one replica-choice rule (4.1; second legs too)
``recommend_global``    the one global-plan choice (4.2; baselines: fixed)
``ii_factor``           workload calibration factor for II (Section 3.2)
``record_ii_execution`` II-level (estimate, observation) pair
``tick``                drive daemons and the calibration cycle
``probe_servers``       run the daemon probe pass now (experiment drivers)
``recalibrate``         close the calibration cycle now (experiment drivers)
``factor``              the factor in force for a server (what-if, placement)
=====================  ======================================================
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..sqlengine import PlanCost
from ..fed.decomposer import DecomposedQuery
from ..fed.global_optimizer import FragmentOption, GlobalPlan
from .epoch import CalibrationEpoch
from .load_balance import FragmentLoadBalancer


class Calibration:
    """The identity calibration, and the base of every other one."""

    #: ReplicaManager whose per-server staleness the timeline samples
    #: carry; the integrator sets it when one is attached.
    replica_manager = None

    def __init__(self) -> None:
        #: One epoch shared by every cost-surface input, so a single
        #: counter tells plan caches whether any of them moved.
        self.epoch = CalibrationEpoch()
        #: Owner of the replica-choice rule, so second legs and
        #: substitution share ``LoadBalanceConfig.band``.
        self.fragment_balancer = FragmentLoadBalancer()

    def bind_meta_wrapper(self, meta_wrapper) -> None:
        pass

    # -- MW-facing interface ---------------------------------------------

    def is_available(self, server: str, t_ms: float) -> bool:
        return True

    def routing_band(self) -> Optional[float]:
        """The band every choice made from a fragment's options stays
        inside: an option costing more than ``1 + band`` times the
        cheapest calibrated one of its rows is never chosen, substituted
        in or sent a second leg, so MW need not explain a server whose
        bound lies above it.  None (here, and for the baselines and the
        what-if view, which choose outside any band): explain every
        server."""
        return None

    def calibrate(
        self, server: str, fragment_signature: str, cost: PlanCost
    ) -> PlanCost:
        return cost

    def record_compile(
        self, server: str, fragment_signature: str, option: FragmentOption
    ) -> None:
        pass

    def record_execution(
        self,
        server: str,
        fragment_signature: str,
        plan_signature: str,
        estimated: PlanCost,
        observed_ms: float,
        t_ms: float,
    ) -> None:
        pass

    def record_error(self, server: str, t_ms: float) -> None:
        pass

    def substitute(
        self,
        option: FragmentOption,
        siblings: Sequence[FragmentOption],
        t_ms: float,
    ) -> FragmentOption:
        return option

    def ranked_cluster(
        self, option: FragmentOption, siblings: Sequence[FragmentOption]
    ) -> List[FragmentOption]:
        """*option* and the siblings it is exchangeable with, in rank
        order (:meth:`FragmentLoadBalancer.ranked_cluster`)."""
        return self.fragment_balancer.ranked_cluster(option, siblings)

    # -- II-facing interface ---------------------------------------------

    def recommend_global(
        self,
        decomposed: DecomposedQuery,
        plans: Sequence[GlobalPlan],
        label: Optional[str],
        t_ms: float,
    ) -> GlobalPlan:
        """The plan II runs for a query labelled *label*: the only
        routing decision of a federation, the cheapest plan here."""
        return plans[0]

    def ii_factor(self) -> float:
        return 1.0

    def record_ii_execution(
        self, estimated_total: float, observed_ms: float, t_ms: float
    ) -> None:
        pass

    # -- daemons and the calibration cycle -------------------------------

    def tick(self, t_ms: float) -> None:
        pass

    def probe_servers(self, t_ms: float) -> None:
        pass

    def recalibrate(self, t_ms: float) -> None:
        pass

    def factor(
        self, server: str, fragment_signature: Optional[str] = None
    ) -> float:
        return 1.0
