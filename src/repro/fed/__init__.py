"""Federated integration layer (the DB2 Information Integrator analog)."""

from .admission import (
    AdmissionController,
    AdmissionDecision,
    ArrivalProcess,
    BurstyArrivals,
    DEFAULT_CLASSES,
    PoissonArrivals,
    PriorityClass,
    ShedVerdict,
    TokenBucket,
    make_arrivals,
    parse_class_spec,
    shed_violations,
)
from .concurrent import ConcurrentRuntime, QueryHandle
from .hedging import HedgePolicy
from .rerouting import (
    Checkpoint,
    ReroutePolicy,
    merge_partial_rows,
    tail_demand_ms,
)
from .decomposer import DecomposedQuery, QueryFragment, decompose
from .global_optimizer import (
    FragmentOption,
    GlobalPlan,
    cluster_near_cost,
    eliminate_dominated,
    enumerate_global_plans,
)
from .integrator import (
    FederatedResult,
    FragmentRecord,
    InformationIntegrator,
)
from .merge import EstimatedInput, build_merge_plan, estimate_merge_cost
from .nicknames import FederationError, NicknameRegistry
from .patroller import PatrolRecord, QueryPatroller, QueryStatus
from .plan_cache import PlanCache, PlanCacheEntry, plan_key
from .replication import ReplicaManager

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "ArrivalProcess",
    "BurstyArrivals",
    "ConcurrentRuntime",
    "DEFAULT_CLASSES",
    "DecomposedQuery",
    "EstimatedInput",
    "FederatedResult",
    "HedgePolicy",
    "FederationError",
    "FragmentOption",
    "FragmentRecord",
    "GlobalPlan",
    "InformationIntegrator",
    "NicknameRegistry",
    "PatrolRecord",
    "PlanCache",
    "PlanCacheEntry",
    "PoissonArrivals",
    "PriorityClass",
    "QueryFragment",
    "QueryHandle",
    "QueryPatroller",
    "QueryStatus",
    "ShedVerdict",
    "TokenBucket",
    "Checkpoint",
    "ReplicaManager",
    "ReroutePolicy",
    "build_merge_plan",
    "cluster_near_cost",
    "decompose",
    "eliminate_dominated",
    "enumerate_global_plans",
    "estimate_merge_cost",
    "make_arrivals",
    "merge_partial_rows",
    "parse_class_spec",
    "plan_key",
    "shed_violations",
    "tail_demand_ms",
]
