"""A from-scratch in-memory relational engine.

This package stands in for the DB2 instances hosted on the paper's remote
servers: SQL parsing, statistics-driven cost-based optimization (first
tuple cost / next tuple cost / cardinality), and metered iterator
execution.  See :class:`repro.sqlengine.database.Database` for the facade.
"""

from .catalog import Catalog, CatalogError, ColumnStats, TableDef, TableStats, collect_stats
from .columnar import (
    ColumnBatch,
    ColumnData,
    TableColumns,
    ValueColumn,
)
from .cost import (
    INFINITE_COST,
    PlanCost,
    REFERENCE_PROFILE,
    ServerProfile,
    StatsContext,
    estimate_selectivity,
)
from .database import Database
from .datagen import (
    Choice,
    ColumnGen,
    ForeignKey,
    Nullable,
    RandomString,
    Serial,
    TableSpec,
    UniformFloat,
    UniformInt,
    ZipfInt,
    populate,
)
from .dml import DmlError, DmlResult, execute_dml
from .executor import ExecutionResult, execute_plan
from .expressions import (
    AggregateCall,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    ExpressionError,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from .logical import BindError, FixedJoinStep, QueryBlock, bind
from .optimizer import (
    Optimizer,
    OptimizerError,
    PlanCandidate,
    finish_plan,
    plan_sql,
)
from .parser import (
    DeleteStatement,
    InsertStatement,
    ParseError,
    SelectStatement,
    UpdateStatement,
    parse,
    parse_expression,
    parse_statement,
)
from .physical import (
    DEFAULT_BATCH_SIZE,
    Distinct,
    ExecutionError,
    Filter,
    HashAggregate,
    HashJoin,
    Limit,
    MaterializedInput,
    NestedLoopJoin,
    PhysicalPlan,
    Project,
    SeqScan,
    Sort,
    WorkMeter,
)
from .storage import HeapTable, StorageError, StorageManager
from .types import (
    Column,
    ColumnType,
    Row,
    Schema,
    SchemaError,
    SqlError,
    TypeMismatchError,
    rows_close_unordered,
    rows_equal_unordered,
)

__all__ = [
    "AggregateCall", "And", "Arithmetic", "BindError",
    "Catalog",
    "CatalogError", "Choice", "Column", "ColumnBatch", "ColumnData",
    "ColumnGen", "ColumnRef",
    "ColumnStats", "ColumnType", "Comparison",
    "TableColumns", "ValueColumn",
    "Database", "DEFAULT_BATCH_SIZE",
    "DeleteStatement", "Distinct", "DmlError", "DmlResult",
    "ExecutionError", "ExecutionResult", "Expression", "ExpressionError",
    "Filter", "FixedJoinStep", "ForeignKey", "FuncCall", "HashAggregate", "HashJoin",
    "HeapTable", "INFINITE_COST", "InList",
    "InsertStatement", "IsNull", "Like",
    "Limit", "Literal", "MaterializedInput", "NestedLoopJoin", "Not",
    "Nullable", "Optimizer", "OptimizerError", "Or",
    "ParseError", "PhysicalPlan", "PlanCandidate", "PlanCost", "Project",
    "QueryBlock", "RandomString", "REFERENCE_PROFILE", "Row",
    "Schema",
    "SchemaError", "SelectStatement", "SeqScan", "Serial", "ServerProfile",
    "Sort", "SqlError", "StatsContext", "StorageError", "StorageManager",
    "TableDef", "TableSpec", "TableStats", "TypeMismatchError",
    "UniformFloat", "UniformInt", "UpdateStatement", "WorkMeter",
    "ZipfInt", "bind", "collect_stats", "estimate_selectivity",
    "execute_dml", "execute_plan", "finish_plan", "parse", "parse_expression",
    "parse_statement", "plan_sql", "populate",
    "rows_close_unordered",
    "rows_equal_unordered",
]
