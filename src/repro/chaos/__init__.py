"""Deterministic chaos harness (FoundationDB-style simulation testing).

One seed drives everything: :func:`generate_scenario` samples a
topology, a QT1–QT5 workload mix and a fault schedule (outages, flaky
error windows, latency spikes, update storms, replica lag);
:func:`run_scenario` executes it on virtual time alongside a fault-free
oracle rerun and asks a SQLite copy of the data for every completed
query's answer; :func:`run_checkers` audits machine-verifiable
federation invariants; and
:func:`shrink_schedule` bisects any failing schedule down to a minimal
reproducer with a one-line ``repro chaos --repro`` command.

``python -m repro chaos --seed 42 --runs 25`` is the CLI entry point;
``tests/chaos/`` is the pytest bridge; ``docs/testing.md`` documents the
invariant catalogue and how to reproduce a CI failure from its seed.
"""

from .checkers import (
    CheckerFn,
    register_checker,
    registered_checkers,
    run_checkers,
    violations,
)
from .determinism import (
    DeterminismError,
    forbid_global_random,
    global_random_uses,
)
from .runner import (
    CacheLookupRecord,
    DispatchRecord,
    QueryOutcome,
    ScenarioRun,
    run_scenario,
)
from .scenario import (
    ARRIVAL_PROCESSES,
    ArrivalSpec,
    FAULT_KINDS,
    FaultEvent,
    QuerySpec,
    ScenarioSpec,
    TOPOLOGY_SERVERS,
    generate_scenario,
    generate_scenarios,
)
from .shrink import FailureProbe, ShrinkResult, repro_command, shrink_schedule

__all__ = [
    "ARRIVAL_PROCESSES",
    "ArrivalSpec",
    "CacheLookupRecord",
    "CheckerFn",
    "DeterminismError",
    "DispatchRecord",
    "FAULT_KINDS",
    "FailureProbe",
    "FaultEvent",
    "QueryOutcome",
    "QuerySpec",
    "ScenarioRun",
    "ScenarioSpec",
    "ShrinkResult",
    "TOPOLOGY_SERVERS",
    "forbid_global_random",
    "generate_scenario",
    "generate_scenarios",
    "global_random_uses",
    "register_checker",
    "registered_checkers",
    "repro_command",
    "run_checkers",
    "run_scenario",
    "shrink_schedule",
    "violations",
]
