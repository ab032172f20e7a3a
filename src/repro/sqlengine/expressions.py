"""Scalar and boolean expression trees and their row evaluator.

Expressions are built by the parser, analysed by the optimizer (selectivity
estimation, predicate pushdown) and compiled against a concrete
:class:`~repro.sqlengine.types.Schema` into plain Python closures
(:meth:`Expression.compile`): the row evaluator, a closure call per row
with positional tuple indexing only.

The row evaluator is the one definition of expression semantics.  The
engine runs expressions over column batches through kernels that
``spine.py`` generates from these trees (``selection_kernel`` /
``value_kernel``); whatever a generated loop cannot handle — a
``TypeError``, a division by zero — hands the batch to the row
evaluator, so values, three-valued logic and error messages are its own
by construction.
"""

from __future__ import annotations

import operator as _operator
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple

from .types import ColumnType, Row, Schema, SqlError, TypeMismatchError


class ExpressionError(SqlError):
    """Raised for malformed expressions (bad operators, arity, typing)."""


Evaluator = Callable[[Row], Any]

#: Comparison operators in SQL surface syntax.
COMPARISON_OPS = ("=", "!=", "<>", "<", "<=", ">", ">=")

#: Arithmetic operators.
ARITHMETIC_OPS = ("+", "-", "*", "/", "%")

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")

SCALAR_FUNCTIONS = ("ABS", "UPPER", "LOWER", "LENGTH")


class Expression:
    """Base class of all expression nodes."""

    def compile(self, schema: Schema) -> Evaluator:
        raise NotImplementedError

    def columns(self) -> Iterator[str]:
        """Yield every column name referenced by this expression."""
        return iter(())

    def result_type(self, schema: Schema) -> ColumnType:
        raise NotImplementedError

    def contains_aggregate(self) -> bool:
        return any(
            isinstance(node, AggregateCall) for node in walk(self)
        )

    def sql(self) -> str:
        """Render back to SQL text (used by the decomposer and tests)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.sql()})"


def walk(expr: Expression) -> Iterator[Expression]:
    """Depth-first traversal over an expression tree."""
    yield expr
    for child in expr.children():
        yield from walk(child)


# Default children() so leaves need not override it.
Expression.children = lambda self: ()  # noqa: E731  # type: ignore[attr-defined]


@dataclass(frozen=True, repr=False)
class Literal(Expression):
    """A constant value (int, float, string, bool or NULL); ``token`` is the
    index of the token the parser read it from, if any (not compared)."""

    value: Any
    token: Optional[int] = field(default=None, compare=False)

    def compile(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row: value

    def result_type(self, schema: Schema) -> ColumnType:
        if isinstance(self.value, bool):
            return ColumnType.BOOL
        if isinstance(self.value, int):
            return ColumnType.INT
        if isinstance(self.value, float):
            return ColumnType.FLOAT
        return ColumnType.STR

    def sql(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        return repr(self.value)


@dataclass(frozen=True, repr=False)
class ColumnRef(Expression):
    """A reference to a column by (optionally qualified) name."""

    name: str

    def compile(self, schema: Schema) -> Evaluator:
        idx = schema.index_of(self.name)
        return lambda row: row[idx]

    def columns(self) -> Iterator[str]:
        yield self.name

    def result_type(self, schema: Schema) -> ColumnType:
        return schema.column(self.name).ctype

    def sql(self) -> str:
        return self.name

    @property
    def bare_name(self) -> str:
        return self.name.rpartition(".")[2]

    @property
    def table(self) -> Optional[str]:
        table, _, _ = self.name.rpartition(".")
        return table or None


@dataclass(frozen=True, repr=False)
class Comparison(Expression):
    """A binary comparison returning SQL three-valued logic (None on NULL)."""

    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def compile(self, schema: Schema) -> Evaluator:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        op = "!=" if self.op == "<>" else self.op
        cmp = _COMPARATORS[op]

        def evaluate(row: Row) -> Optional[bool]:
            lv = lf(row)
            rv = rf(row)
            if lv is None or rv is None:
                return None
            try:
                return cmp(lv, rv)
            except TypeError as exc:
                raise TypeMismatchError(
                    f"cannot compare {lv!r} {op} {rv!r}"
                ) from exc

        return evaluate

    def columns(self) -> Iterator[str]:
        yield from self.left.columns()
        yield from self.right.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        return ColumnType.BOOL

    def sql(self) -> str:
        return f"{self.left.sql()} {self.op} {self.right.sql()}"


_COMPARATORS: Dict[str, Callable[[Any, Any], bool]] = {
    "=": _operator.eq,
    "!=": _operator.ne,
    "<": _operator.lt,
    "<=": _operator.le,
    ">": _operator.gt,
    ">=": _operator.ge,
}


@dataclass(frozen=True, repr=False)
class _Connective(Expression):
    """AND / OR under three-valued logic.  ``DECIDES`` is the operand
    value that settles the result on its own (False for AND, True for
    OR): the right side only sees rows the left did not already decide."""

    left: Expression
    right: Expression

    DECIDES = False
    KEYWORD = ""

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def compile(self, schema: Schema) -> Evaluator:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        decides = self.DECIDES
        undecided = not decides

        def evaluate(row: Row) -> Optional[bool]:
            lv = lf(row)
            if lv is decides:
                return decides
            rv = rf(row)
            if rv is decides:
                return decides
            if lv is None or rv is None:
                return None
            return undecided

        return evaluate

    def columns(self) -> Iterator[str]:
        yield from self.left.columns()
        yield from self.right.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        return ColumnType.BOOL

    def sql(self) -> str:
        return f"({self.left.sql()} {self.KEYWORD} {self.right.sql()})"


class And(_Connective):
    KEYWORD = "AND"


class Or(_Connective):
    DECIDES = True
    KEYWORD = "OR"


@dataclass(frozen=True, repr=False)
class Not(Expression):
    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)

        def evaluate(row: Row) -> Optional[bool]:
            v = f(row)
            if v is None:
                return None
            return not v

        return evaluate

    def columns(self) -> Iterator[str]:
        yield from self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        return ColumnType.BOOL

    def sql(self) -> str:
        return f"(NOT {self.operand.sql()})"


@dataclass(frozen=True, repr=False)
class IsNull(Expression):
    operand: Expression
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)
        if self.negated:
            return lambda row: f(row) is not None
        return lambda row: f(row) is None

    def columns(self) -> Iterator[str]:
        yield from self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        return ColumnType.BOOL

    def sql(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand.sql()} {suffix}"


class _PerValuePredicate(Expression):
    """Compilation shared by LIKE and IN: predicates over one operand
    whose answer depends only on the operand's value.

    ``_test()`` returns the decision for one non-NULL value (raising
    ``TypeMismatchError`` for a value it cannot judge); NULL operands
    yield NULL.
    """

    operand: Expression

    def _test(self) -> Callable[[Any], bool]:
        raise NotImplementedError

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)
        test = self._test()

        def evaluate(row: Row) -> Optional[bool]:
            value = f(row)
            return None if value is None else test(value)

        return evaluate


@dataclass(frozen=True, repr=False)
class Like(_PerValuePredicate):
    """SQL LIKE with ``%`` (any run) and ``_`` (any one char) wildcards."""

    operand: Expression
    pattern: str
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def _regex(self):
        import re

        parts = []
        for ch in self.pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        return re.compile("^" + "".join(parts) + "$", re.DOTALL)

    def _test(self) -> Callable[[Any], bool]:
        match = self._regex().match
        negated = self.negated

        def test(value: Any) -> bool:
            if not isinstance(value, str):
                raise TypeMismatchError(
                    f"LIKE requires a string, got {value!r}"
                )
            return (match(value) is not None) is not negated

        return test

    def columns(self) -> Iterator[str]:
        yield from self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        return ColumnType.BOOL

    def sql(self) -> str:
        escaped = self.pattern.replace("'", "''")
        op = "NOT LIKE" if self.negated else "LIKE"
        return f"{self.operand.sql()} {op} '{escaped}'"


@dataclass(frozen=True, repr=False)
class InList(_PerValuePredicate):
    """``expr [NOT] IN (v1, v2, ...)`` over literal values."""

    operand: Expression
    values: Tuple[Any, ...]
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def _test(self) -> Callable[[Any], bool]:
        members = set(self.values)
        negated = self.negated

        def test(value: Any) -> bool:
            try:
                return (value in members) is not negated
            except TypeError as exc:  # unhashable — cannot happen for scalars
                raise TypeMismatchError(str(exc)) from exc

        return test

    def columns(self) -> Iterator[str]:
        yield from self.operand.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        return ColumnType.BOOL

    def sql(self) -> str:
        rendered = ", ".join(Literal(v).sql() for v in self.values)
        op = "NOT IN" if self.negated else "IN"
        return f"{self.operand.sql()} {op} ({rendered})"


@dataclass(frozen=True, repr=False)
class Arithmetic(Expression):
    op: str
    left: Expression
    right: Expression

    def __post_init__(self) -> None:
        if self.op not in ARITHMETIC_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def compile(self, schema: Schema) -> Evaluator:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        op = _ARITHMETIC_FUNCS[self.op]

        def evaluate(row: Row) -> Any:
            lv = lf(row)
            rv = rf(row)
            if lv is None or rv is None:
                return None
            try:
                return op(lv, rv)
            except ZeroDivisionError:
                return None
            except TypeError as exc:
                raise TypeMismatchError(
                    f"cannot compute {lv!r} {self.op} {rv!r}"
                ) from exc

        return evaluate

    def columns(self) -> Iterator[str]:
        yield from self.left.columns()
        yield from self.right.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        lt = self.left.result_type(schema)
        rt = self.right.result_type(schema)
        if ColumnType.FLOAT in (lt, rt) or self.op == "/":
            return ColumnType.FLOAT
        if lt is ColumnType.STR and self.op == "+":
            return ColumnType.STR
        return ColumnType.INT

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


_ARITHMETIC_FUNCS: Dict[str, Callable[[Any, Any], Any]] = {
    "+": _operator.add,
    "-": _operator.sub,
    "*": _operator.mul,
    "/": _operator.truediv,
    "%": _operator.mod,
}


@dataclass(frozen=True, repr=False)
class FuncCall(Expression):
    """A scalar function call: ABS, UPPER, LOWER, LENGTH."""

    name: str
    arg: Expression

    def __post_init__(self) -> None:
        if self.name.upper() not in SCALAR_FUNCTIONS:
            raise ExpressionError(f"unknown scalar function {self.name!r}")

    def children(self) -> Tuple[Expression, ...]:
        return (self.arg,)

    def compile(self, schema: Schema) -> Evaluator:
        f = self.arg.compile(schema)
        func = _SCALAR_FUNCS[self.name.upper()]

        def evaluate(row: Row) -> Any:
            v = f(row)
            if v is None:
                return None
            return func(v)

        return evaluate

    def columns(self) -> Iterator[str]:
        yield from self.arg.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        name = self.name.upper()
        if name == "LENGTH":
            return ColumnType.INT
        if name in ("UPPER", "LOWER"):
            return ColumnType.STR
        return self.arg.result_type(schema)

    def sql(self) -> str:
        return f"{self.name.upper()}({self.arg.sql()})"


_SCALAR_FUNCS: Dict[str, Callable[[Any], Any]] = {
    "ABS": abs,
    "UPPER": lambda s: s.upper(),
    "LOWER": lambda s: s.lower(),
    "LENGTH": len,
}


@dataclass(frozen=True, repr=False)
class AggregateCall(Expression):
    """An aggregate function reference inside a SELECT/HAVING clause.

    Aggregates are *not* row-evaluable; the aggregation operator extracts
    them from the projection list and computes them over groups.  ``arg``
    is None only for ``COUNT(*)``.
    """

    name: str
    arg: Optional[Expression]
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.name.upper() not in AGGREGATE_FUNCTIONS:
            raise ExpressionError(f"unknown aggregate {self.name!r}")
        if self.arg is None and self.name.upper() != "COUNT":
            raise ExpressionError(f"{self.name}(*) is only valid for COUNT")

    def children(self) -> Tuple[Expression, ...]:
        return (self.arg,) if self.arg is not None else ()

    def compile(self, schema: Schema) -> Evaluator:
        raise ExpressionError(
            f"aggregate {self.name} cannot be evaluated per-row; "
            "it must be handled by an aggregation operator"
        )

    def columns(self) -> Iterator[str]:
        if self.arg is not None:
            yield from self.arg.columns()

    def result_type(self, schema: Schema) -> ColumnType:
        name = self.name.upper()
        if name == "COUNT":
            return ColumnType.INT
        if name == "AVG":
            return ColumnType.FLOAT
        if self.arg is None:  # pragma: no cover - guarded in __post_init__
            return ColumnType.INT
        return self.arg.result_type(schema)

    def sql(self) -> str:
        inner = "*" if self.arg is None else self.arg.sql()
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name.upper()}({inner})"


def conjuncts(expr: Optional[Expression]) -> Tuple[Expression, ...]:
    """Split a predicate into its top-level AND-ed conjuncts."""
    if expr is None:
        return ()
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return (expr,)


def combine_conjuncts(parts: Sequence[Expression]) -> Optional[Expression]:
    """Rebuild a conjunction from parts (inverse of :func:`conjuncts`)."""
    result: Optional[Expression] = None
    for part in parts:
        result = part if result is None else And(result, part)
    return result


def is_equijoin_conjunct(expr: Expression) -> bool:
    """True for ``a.x = b.y`` style conjuncts joining two tables."""
    return (
        isinstance(expr, Comparison)
        and expr.op == "="
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, ColumnRef)
        and expr.left.table is not None
        and expr.right.table is not None
        and expr.left.table != expr.right.table
    )
