"""The paper's contribution: the Query Cost Calibrator (QCC)."""

# ``repro.fed`` and this package import each other's submodules (fed
# needs ``Calibration``, which is typed over fed's plans).  Loading fed
# first lets its ``__init__`` finish while no module here is half-done.
from .. import fed as _fed  # noqa: F401
from .availability import AvailabilityMonitor, ServerHealth
from .calibration import Calibration
from .calibrator import CostCalibrator, IICalibrator
from .cycle import CalibrationCycleController, CycleConfig
from .epoch import CalibrationEpoch
from .history import RatioHistory, RunningStats
from .load_balance import (
    FragmentLoadBalancer,
    GlobalLoadBalancer,
    LoadBalanceConfig,
)
from .routing import Decision, QCCConfig, QueryCostCalibrator
from .whatif import WhatIfPlanner, WhatIfResult, build_simulated_meta_wrapper

__all__ = [
    "AvailabilityMonitor",
    "Calibration",
    "CalibrationCycleController",
    "CalibrationEpoch",
    "CostCalibrator",
    "CycleConfig",
    "Decision",
    "FragmentLoadBalancer",
    "GlobalLoadBalancer",
    "IICalibrator",
    "LoadBalanceConfig",
    "QCCConfig",
    "QueryCostCalibrator",
    "RatioHistory",
    "RunningStats",
    "ServerHealth",
    "WhatIfPlanner",
    "WhatIfResult",
    "build_simulated_meta_wrapper",
]
