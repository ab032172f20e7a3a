"""Baseline systems the paper compares against.

Each baseline is a deployment factory: the same federation, but routed
without QCC's runtime feedback — by the calibration it is built with.

* :func:`fixed_assignment_deployment` — Fixed Assignment 1 (the
  :class:`FixedAssignment` calibration): routing frozen at
  nickname-registration time (QT1,QT3→S1; QT2→S2; QT4→S3).
* :func:`preferred_server_deployment` — Fixed Assignment 2 (the
  :class:`PreferredServer` calibration): always the most powerful
  server (S3).
* :func:`uncalibrated_deployment` — cost-based routing on raw, load-
  blind estimates (DB2 II without QCC).
"""

from .builders import (
    FixedAssignment,
    PreferredServer,
    fixed_assignment_deployment,
    preferred_server_deployment,
    qcc_deployment,
    uncalibrated_deployment,
)

__all__ = [
    "FixedAssignment",
    "PreferredServer",
    "fixed_assignment_deployment",
    "preferred_server_deployment",
    "qcc_deployment",
    "uncalibrated_deployment",
]
