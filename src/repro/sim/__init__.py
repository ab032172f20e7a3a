"""Simulation substrate: virtual time, load, network and failures.

This package supplies the runtime dynamics the paper's testbed produced
with real machines and update storms: per-server load levels inflating
service times, WAN links with congestion, and availability schedules.
"""

from .clock import PeriodicTimer, VirtualClock
from .failures import (
    AlwaysUp,
    AvailabilitySchedule,
    ErrorInjector,
    OutageSchedule,
    ServerUnavailable,
    WindowedErrorInjector,
)
from .load import (
    ConstantLoad,
    ContentionProfile,
    InducedLoad,
    LoadSchedule,
    MutableLoad,
    StepSchedule,
)
from .network import NetworkLink
from .rng import derive_rng, derive_seed
from .sched import (
    AllOf,
    Completion,
    Delay,
    EventScheduler,
    RaceOutcome,
    RacedWork,
    ServerQueue,
    Work,
)
from .server import (
    REQUEST_BYTES,
    RemoteExecution,
    RemoteServer,
)
from .storms import StormReport, UpdateStormDriver

__all__ = [
    "AllOf",
    "AlwaysUp",
    "AvailabilitySchedule",
    "Completion",
    "ConstantLoad",
    "ContentionProfile",
    "Delay",
    "ErrorInjector",
    "EventScheduler",
    "InducedLoad",
    "LoadSchedule",
    "MutableLoad",
    "NetworkLink",
    "OutageSchedule",
    "PeriodicTimer",
    "REQUEST_BYTES",
    "RaceOutcome",
    "RacedWork",
    "RemoteExecution",
    "RemoteServer",
    "ServerQueue",
    "ServerUnavailable",
    "StepSchedule",
    "StormReport",
    "UpdateStormDriver",
    "VirtualClock",
    "WindowedErrorInjector",
    "Work",
    "derive_rng",
    "derive_seed",
]
