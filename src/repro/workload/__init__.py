"""Evaluation workload: schema, query types, load phases, generators."""

from .generator import build_workload
from .phases import (
    BASE_LEVEL,
    FIXED_ASSIGNMENT_1,
    LOAD_LEVEL,
    PHASES,
    PREFERRED_SERVER,
    Phase,
    SERVER_NAMES,
)
from .queries import (
    EXTENDED_QUERY_TYPES,
    QT1,
    QT2,
    QT3,
    QT4,
    QT5,
    QUERY_TYPE_NAMES,
    QUERY_TYPES,
    QueryInstance,
    QueryTemplate,
    template_by_name,
)
from .schema import (
    BENCH_SCALE,
    PAPER_SCALE,
    TEST_SCALE,
    WorkloadScale,
    table_specs,
)

__all__ = [
    "BASE_LEVEL",
    "BENCH_SCALE",
    "EXTENDED_QUERY_TYPES",
    "FIXED_ASSIGNMENT_1",
    "LOAD_LEVEL",
    "PAPER_SCALE",
    "PHASES",
    "PREFERRED_SERVER",
    "Phase",
    "QT1",
    "QT2",
    "QT3",
    "QT4",
    "QT5",
    "QUERY_TYPES",
    "QUERY_TYPE_NAMES",
    "QueryInstance",
    "QueryTemplate",
    "SERVER_NAMES",
    "TEST_SCALE",
    "WorkloadScale",
    "build_workload",
    "table_specs",
    "template_by_name",
]
