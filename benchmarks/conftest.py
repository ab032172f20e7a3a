"""Shared fixtures for the experiment benchmarks.

Every bench regenerates one of the paper's tables/figures.  The loaded
sample databases (the dominant setup cost) are built once per session and
shared read-only across deployments; the paper benches take their numbers
from one session-wide :class:`repro.harness.Evaluation`, so Figures 10/11
and Table 2 do not recompute the same QCC sweep three times.
"""

from __future__ import annotations

import os

import pytest

from repro.harness import DEFAULT_SERVER_SPECS, Evaluation, build_databases
from repro.workload import BENCH_SCALE, build_workload

#: Instances per query type in benchmark workloads (paper: 10).  CI's
#: bench-smoke job shrinks this via the environment to keep the per-PR
#: perf signal fast.
INSTANCES_PER_TYPE = int(os.environ.get("REPRO_BENCH_INSTANCES", "5"))


@pytest.fixture(scope="session")
def bench_databases():
    return build_databases(DEFAULT_SERVER_SPECS, BENCH_SCALE, seed=7)


@pytest.fixture(scope="session")
def bench_workload():
    return build_workload(instances_per_type=INSTANCES_PER_TYPE, seed=7)


@pytest.fixture(scope="session")
def evaluation(bench_databases):
    return Evaluation(
        scale=BENCH_SCALE,
        databases=bench_databases,
        instances_per_type=INSTANCES_PER_TYPE,
    )
