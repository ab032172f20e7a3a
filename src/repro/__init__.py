"""repro: Load and Network Aware Query Routing for Information Integration.

A from-scratch reproduction of Li et al., ICDE 2005.  The package builds
a complete federated query stack — an embedded relational engine
(:mod:`repro.sqlengine`), a load/network/availability simulator
(:mod:`repro.sim`), a federated integrator with wrappers
(:mod:`repro.fed`, :mod:`repro.wrappers`) — and on top of it the paper's
contribution, the Query Cost Calibrator (:mod:`repro.core`).

Quickstart::

    from repro import build_federation, build_workload

    deployment = build_federation()              # II + MW + QCC + 3 servers
    workload = build_workload()                  # QT1-QT4, 10 instances each
    result = deployment.integrator.submit(workload[0].sql)
    print(result.response_ms, result.rows[:3])
"""

from .core import (
    QCCConfig,
    QueryCostCalibrator,
    WhatIfPlanner,
)
from .fed import (
    FederatedResult,
    FederationError,
    InformationIntegrator,
    NicknameRegistry,
)
from .harness import (
    Deployment,
    ServerSpec,
    build_federation,
    build_replica_federation,
    run_phase,
    run_phase_sweep,
    run_workload_once,
)
from .sim import RemoteServer, ServerUnavailable, VirtualClock
from .sqlengine import Database, PlanCost, SqlError
from .workload import (
    PHASES,
    QUERY_TYPES,
    QueryInstance,
    build_workload,
)
from .wrappers import MetaWrapper, RelationalWrapper

__version__ = "0.1.0"

__all__ = [
    "Database",
    "Deployment",
    "FederatedResult",
    "FederationError",
    "InformationIntegrator",
    "MetaWrapper",
    "NicknameRegistry",
    "PHASES",
    "PlanCost",
    "QCCConfig",
    "QUERY_TYPES",
    "QueryCostCalibrator",
    "QueryInstance",
    "RelationalWrapper",
    "RemoteServer",
    "ServerSpec",
    "ServerUnavailable",
    "SqlError",
    "VirtualClock",
    "WhatIfPlanner",
    "build_federation",
    "build_replica_federation",
    "build_workload",
    "run_phase",
    "run_phase_sweep",
    "run_workload_once",
    "__version__",
]
