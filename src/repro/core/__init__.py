"""The paper's contribution: the Query Cost Calibrator (QCC)."""

from .availability import AvailabilityMonitor, ServerHealth
from .bidding import Auction, Bid, BidBroker, BiddingQcc
from .calibration import Calibration
from .calibrator import CalibratorConfig, CostCalibrator, IICalibrator
from .cycle import CalibrationCycleController, CycleConfig
from .epoch import CalibrationEpoch
from .history import RatioHistory, RunningStats
from .load_balance import (
    FragmentLoadBalancer,
    GlobalLoadBalancer,
    LoadBalanceConfig,
)
from .placement import (
    NicknameLoad,
    PlacementAdvisor,
    PlacementRecommendation,
    apply_recommendation,
)
from .routing import Decision, QCCConfig, QueryCostCalibrator
from .whatif import WhatIfPlanner, WhatIfResult, build_simulated_meta_wrapper

__all__ = [
    "Auction",
    "AvailabilityMonitor",
    "Bid",
    "BidBroker",
    "BiddingQcc",
    "Calibration",
    "CalibrationCycleController",
    "CalibrationEpoch",
    "CalibratorConfig",
    "CostCalibrator",
    "CycleConfig",
    "Decision",
    "FragmentLoadBalancer",
    "GlobalLoadBalancer",
    "IICalibrator",
    "LoadBalanceConfig",
    "NicknameLoad",
    "PlacementAdvisor",
    "PlacementRecommendation",
    "QCCConfig",
    "QueryCostCalibrator",
    "RatioHistory",
    "RunningStats",
    "ServerHealth",
    "WhatIfPlanner",
    "WhatIfResult",
    "apply_recommendation",
    "build_simulated_meta_wrapper",
]
