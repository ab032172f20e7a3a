"""SQL subset parser.

Grammar (case-insensitive keywords)::

    select    := SELECT [DISTINCT] items FROM tables
                 [WHERE expr] [GROUP BY exprs] [HAVING expr]
                 [ORDER BY order_items] [LIMIT int]
    items     := '*' | item (',' item)*
    item      := expr [AS ident] | ident '.' '*'
    tables    := source (',' source | join)*
    source    := ident [AS ident | ident]
    join      := [INNER | LEFT [OUTER]] JOIN source ON expr
    expr      := or-chain of AND/NOT/comparison/IS NULL/arith terms
    number    := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]

The parser produces a :class:`SelectStatement` AST that renders back to SQL
via ``sql()`` — the federated decomposer manufactures fragment SQL this way,
so round-tripping (``parse(s.sql()) == s``, floats in ``repr`` form included)
is covered by property tests.  How the text is scanned and walked is in
docs/architecture.md, "The SQL front end".
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import inf
from typing import List, Optional, Tuple

from .expressions import (
    AGGREGATE_FUNCTIONS,
    SCALAR_FUNCTIONS,
    AggregateCall,
    And,
    Arithmetic,
    ColumnRef,
    Comparison,
    Expression,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
)
from .types import SqlError


class ParseError(SqlError):
    """Raised on malformed SQL input."""


KEYWORDS = {
    "SELECT", "DISTINCT", "FROM", "WHERE", "GROUP", "BY", "HAVING",
    "ORDER", "LIMIT", "AS", "AND", "OR", "NOT", "JOIN", "INNER", "ON",
    "ASC", "DESC", "NULL", "TRUE", "FALSE", "IS", "BETWEEN", "IN", "LIKE",
    "INSERT", "INTO", "VALUES", "UPDATE", "SET", "DELETE",
    "LEFT", "OUTER",
}

#: One token per match, named by its kind: leading whitespace is swallowed,
#: the end of the text is ``EOF`` and any other character ``BAD``, so the
#: matches tile the text.  A number glued to an identifier character
#: (``12abc``, ``1e``) is no token: its first digit comes out ``BAD``.  The
#: lookahead-plus-backreference makes the number atomic (``(?>...)`` needs
#: 3.11), or ``1.5e`` would fall back to ``1`` ``.`` ``5e``.
_TOKEN_RE = re.compile(
    r"""\s*(?:
    (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<NUMBER>(?=(?P<n>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?))(?P=n)(?![A-Za-z_]))
  | (?P<STRING>'(?:[^']|'')*')
  | (?P<OP><=|>=|<>|!=|=|<|>)
  | (?P<PUNCT>[(),.*+\-/%])
  | (?P<EOF>\Z)
  | (?P<BAD>\S)
    )""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | PUNCT | EOF
    value: str
    position: int


def _scan(text: str) -> Tuple[List[str], List[str], List[int]]:
    """Token kinds, values and offsets of *text* as three aligned lists.

    The last entry is the one ``EOF`` (value ``""``).  Keywords are folded
    to upper case, so a value identifies its kind: no identifier spells a
    keyword, strings keep their quotes, ``EOF`` alone is empty.
    """
    kinds: List[str] = []
    values: List[str] = []
    offsets: List[int] = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        value = match[kind]
        offsets.append(match.start(kind))
        if kind == "IDENT":
            upper = value.upper()
            if upper in KEYWORDS:
                kind, value = "KEYWORD", upper
        elif kind == "BAD":
            if value.isdecimal():
                raise ParseError(f"malformed number at offset {offsets[-1]}")
            raise ParseError(f"unexpected character {value!r} at offset {offsets[-1]}")
        kinds.append(kind)
        values.append(value)
        if kind == "EOF":  # trailing whitespace would match it twice
            break
    return kinds, values, offsets


def tokenize(text: str) -> List[Token]:
    """The tokens of *text* as objects (the parser reads the arrays)."""
    return [Token(*entry) for entry in zip(*_scan(text))]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One projection: an expression with an optional alias.

    ``star_table`` marks ``t.*`` items; ``expr`` is None in that case and
    for the bare ``*`` (which is represented by an empty items list).
    """

    expr: Optional[Expression]
    alias: Optional[str] = None
    star_table: Optional[str] = None

    def output_name(self, ordinal: int) -> str:
        if self.alias:
            return self.alias
        if isinstance(self.expr, ColumnRef):
            return self.expr.bare_name
        return f"col{ordinal}"

    def sql(self) -> str:
        if self.star_table:
            return f"{self.star_table}.*"
        assert self.expr is not None
        rendered = self.expr.sql()
        if self.alias:
            rendered += f" AS {self.alias}"
        return rendered


@dataclass(frozen=True)
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referenced by in expressions."""
        return self.alias or self.name

    def sql(self) -> str:
        return f"{self.name} AS {self.alias}" if self.alias else self.name


@dataclass(frozen=True)
class JoinClause:
    table: TableRef
    condition: Expression
    outer: bool = False
    """True for LEFT OUTER JOIN; False for INNER JOIN."""

    def sql(self) -> str:
        keyword = "LEFT JOIN" if self.outer else "JOIN"
        return f"{keyword} {self.table.sql()} ON {self.condition.sql()}"


@dataclass(frozen=True)
class OrderItem:
    expr: Expression
    ascending: bool = True

    def sql(self) -> str:
        return f"{self.expr.sql()} {'ASC' if self.ascending else 'DESC'}"


@dataclass(frozen=True)
class SelectStatement:
    items: Tuple[SelectItem, ...]  # empty tuple means SELECT *
    tables: Tuple[TableRef, ...]
    joins: Tuple[JoinClause, ...] = ()
    where: Optional[Expression] = None
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False

    def sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        if self.items:
            parts.append(", ".join(item.sql() for item in self.items))
        else:
            parts.append("*")
        parts.append("FROM")
        parts.append(", ".join(t.sql() for t in self.tables))
        for join in self.joins:
            parts.append(join.sql())
        if self.where is not None:
            parts.append(f"WHERE {self.where.sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        return " ".join(parts)


@dataclass(frozen=True)
class InsertStatement:
    """``INSERT INTO table [(cols)] VALUES (...), (...)``."""

    table: str
    columns: Tuple[str, ...]  # empty = positional full-row inserts
    rows: Tuple[Tuple[Expression, ...], ...]

    def sql(self) -> str:
        cols = f" ({', '.join(self.columns)})" if self.columns else ""
        values = ", ".join(
            "(" + ", ".join(e.sql() for e in row) + ")" for row in self.rows
        )
        return f"INSERT INTO {self.table}{cols} VALUES {values}"


@dataclass(frozen=True)
class Assignment:
    column: str
    value: Expression

    def sql(self) -> str:
        return f"{self.column} = {self.value.sql()}"


@dataclass(frozen=True)
class UpdateStatement:
    """``UPDATE table SET col = expr [, ...] [WHERE pred]``."""

    table: str
    assignments: Tuple[Assignment, ...]
    where: Optional[Expression] = None

    def sql(self) -> str:
        text = (
            f"UPDATE {self.table} SET "
            + ", ".join(a.sql() for a in self.assignments)
        )
        if self.where is not None:
            text += f" WHERE {self.where.sql()}"
        return text


@dataclass(frozen=True)
class DeleteStatement:
    """``DELETE FROM table [WHERE pred]``."""

    table: str
    where: Optional[Expression] = None

    def sql(self) -> str:
        text = f"DELETE FROM {self.table}"
        if self.where is not None:
            text += f" WHERE {self.where.sql()}"
        return text


Statement = (SelectStatement, InsertStatement, UpdateStatement, DeleteStatement)

_CONSTANTS = {"NULL": None, "TRUE": True, "FALSE": False}


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    """Recursive descent over the arrays of :func:`_scan`, by index."""

    __slots__ = ("_kinds", "_values", "_offsets", "_index")

    def __init__(self, text: str):
        self._kinds, self._values, self._offsets = _scan(text)
        self._index = 0

    # -- token helpers -----------------------------------------------------
    # A value identifies its kind (see _scan), so punctuation, operators
    # and keywords are asked for by value and the open classes by kind.

    def _accept(self, value: str) -> bool:
        if self._values[self._index] == value:
            self._index += 1
            return True
        return False

    def _expect(self, value: str) -> None:
        if self._values[self._index] != value:
            raise self._expected(value)
        self._index += 1

    def _expect_kind(self, kind: str) -> str:
        index = self._index
        if self._kinds[index] != kind:
            raise self._expected(kind)
        self._index = index + 1
        return self._values[index]

    def _expected(self, want: str) -> ParseError:
        return ParseError(
            f"expected {want} at offset {self._offsets[self._index]}, "
            f"found {self._values[self._index] or 'end of input'!r}"
        )

    # -- grammar -----------------------------------------------------------

    def parse_statement(self):
        word = self._values[self._index]
        if word == "SELECT":
            return self.parse_select()
        if word == "INSERT":
            return self._parse_insert()
        if word == "UPDATE":
            return self._parse_update()
        if word == "DELETE":
            return self._parse_delete()
        raise ParseError(f"expected a statement, found {word or 'end of input'!r}")

    def _parse_insert(self) -> InsertStatement:
        self._expect("INSERT")
        self._expect("INTO")
        table = self._expect_kind("IDENT")
        columns: List[str] = []
        if self._accept("("):
            columns.append(self._expect_kind("IDENT"))
            while self._accept(","):
                columns.append(self._expect_kind("IDENT"))
            self._expect(")")
        self._expect("VALUES")
        rows: List[Tuple[Expression, ...]] = []
        while True:
            self._expect("(")
            rows.append(tuple(self._parse_expression_list()))
            self._expect(")")
            if not self._accept(","):
                break
        self._expect_kind("EOF")
        return InsertStatement(
            table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def _parse_update(self) -> UpdateStatement:
        self._expect("UPDATE")
        table = self._expect_kind("IDENT")
        self._expect("SET")
        assignments = [self._parse_assignment()]
        while self._accept(","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept("WHERE"):
            where = self.parse_expression()
        self._expect_kind("EOF")
        return UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_assignment(self) -> Assignment:
        column = self._expect_kind("IDENT")
        self._expect("=")
        return Assignment(column=column, value=self.parse_expression())

    def _parse_delete(self) -> DeleteStatement:
        self._expect("DELETE")
        self._expect("FROM")
        table = self._expect_kind("IDENT")
        where = None
        if self._accept("WHERE"):
            where = self.parse_expression()
        self._expect_kind("EOF")
        return DeleteStatement(table=table, where=where)

    def parse_select(self) -> SelectStatement:
        self._expect("SELECT")
        distinct = self._accept("DISTINCT")
        items = self._parse_select_items()
        self._expect("FROM")
        tables, joins = self._parse_from()
        where = None
        if self._accept("WHERE"):
            where = self.parse_expression()
        group_by: Tuple[Expression, ...] = ()
        if self._accept("GROUP"):
            self._expect("BY")
            group_by = tuple(self._parse_expression_list())
        having = None
        if self._accept("HAVING"):
            having = self.parse_expression()
        order_by: Tuple[OrderItem, ...] = ()
        if self._accept("ORDER"):
            self._expect("BY")
            order_by = tuple(self._parse_order_items())
        limit = None
        if self._accept("LIMIT"):
            raw = self._expect_kind("NUMBER")
            if not raw.isdecimal():
                raise ParseError(f"LIMIT must be an integer, got {raw}")
            limit = int(raw)
        self._expect_kind("EOF")
        return SelectStatement(
            items=items,
            tables=tables,
            joins=joins,
            where=where,
            group_by=group_by,
            having=having,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )

    def _parse_select_items(self) -> Tuple[SelectItem, ...]:
        if self._accept("*"):
            return ()
        items = [self._parse_select_item()]
        while self._accept(","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        index = self._index
        # t.* form: IDENT '.' '*' (the lookahead cannot pass EOF: neither
        # an identifier nor '.' is the last token)
        if (
            self._kinds[index] == "IDENT"
            and self._values[index + 1] == "."
            and self._values[index + 2] == "*"
        ):
            self._index = index + 3
            return SelectItem(expr=None, star_table=self._values[index])
        return SelectItem(expr=self.parse_expression(), alias=self._parse_alias())

    def _parse_alias(self) -> Optional[str]:
        """``[AS] ident`` after a select item or a table name."""
        if self._accept("AS"):
            return self._expect_kind("IDENT")
        index = self._index
        if self._kinds[index] == "IDENT":
            self._index = index + 1
            return self._values[index]
        return None

    def _parse_from(self) -> Tuple[Tuple[TableRef, ...], Tuple[JoinClause, ...]]:
        tables = [self._parse_table_ref()]
        joins: List[JoinClause] = []
        while True:
            word = self._values[self._index]
            if word == ",":
                self._index += 1
                tables.append(self._parse_table_ref())
                continue
            if word == "LEFT":
                self._index += 1
                self._accept("OUTER")
                outer = True
            elif word == "INNER" or word == "JOIN":
                self._accept("INNER")
                outer = False
            else:
                break
            self._expect("JOIN")
            table = self._parse_table_ref()
            self._expect("ON")
            condition = self.parse_expression()
            joins.append(
                JoinClause(table=table, condition=condition, outer=outer)
            )
        return tuple(tables), tuple(joins)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect_kind("IDENT")
        return TableRef(name=name, alias=self._parse_alias())

    def _parse_expression_list(self) -> List[Expression]:
        exprs = [self.parse_expression()]
        while self._accept(","):
            exprs.append(self.parse_expression())
        return exprs

    def _parse_order_items(self) -> List[OrderItem]:
        items = []
        while True:
            expr = self.parse_expression()
            ascending = True
            if self._accept("DESC"):
                ascending = False
            else:
                self._accept("ASC")
            items.append(OrderItem(expr=expr, ascending=ascending))
            if not self._accept(","):
                return items

    # expression precedence: OR < AND < NOT < comparison < additive < term
    def parse_expression(self) -> Expression:
        left = self._parse_and()
        while self._values[self._index] == "OR":
            self._index += 1
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._values[self._index] == "AND":
            self._index += 1
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._values[self._index] == "NOT":
            self._index += 1
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        index = self._index
        kind = self._kinds[index]
        if kind == "OP":
            self._index = index + 1
            return Comparison(self._values[index], left, self._parse_additive())
        if kind != "KEYWORD":
            return left
        word = self._values[index]
        if word == "IS":
            self._index = index + 1
            negated = self._accept("NOT")
            self._expect("NULL")
            return IsNull(left, negated=negated)
        if word == "BETWEEN":
            self._index = index + 1
            low = self._parse_additive()
            self._expect("AND")
            high = self._parse_additive()
            return And(Comparison(">=", left, low), Comparison("<=", left, high))
        negated = word == "NOT"
        if negated:
            # NOT binds to the IN / LIKE after it, or to nothing here.
            word = self._values[index + 1]
            if word != "IN" and word != "LIKE":
                return left
            index += 1
        if word == "LIKE":
            self._index = index + 1
            pattern = self._expect_kind("STRING")[1:-1].replace("''", "'")
            return Like(left, pattern, negated=negated)
        if word == "IN":
            self._index = index + 1
            self._expect("(")
            values = [self._parse_in_value()]
            while self._accept(","):
                values.append(self._parse_in_value())
            self._expect(")")
            return InList(left, tuple(values), negated=negated)
        return left

    def _parse_in_value(self):
        expr = self._parse_term()
        if isinstance(expr, Literal):
            return expr.value
        # allow negative numeric literals (parsed as 0 - n)
        if (
            isinstance(expr, Arithmetic)
            and expr.op == "-"
            and isinstance(expr.left, Literal)
            and expr.left.value == 0
            and isinstance(expr.right, Literal)
        ):
            return -expr.right.value
        raise ParseError("IN list values must be literals")

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            op = self._values[self._index]
            if op not in ("+", "-"):
                return left
            self._index += 1
            left = Arithmetic(op, left, self._parse_multiplicative())

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_term()
        while True:
            op = self._values[self._index]
            if op not in ("*", "/", "%"):
                return left
            self._index += 1
            left = Arithmetic(op, left, self._parse_term())

    def _parse_term(self) -> Expression:
        index = self._index
        kind = self._kinds[index]
        value = self._values[index]
        self._index = index + 1  # every branch that returns took the token
        if kind == "IDENT":
            return self._parse_identifier_term(value)
        if kind == "NUMBER":
            if value.isdecimal():
                return Literal(int(value))
            number = float(value)
            if number == inf:
                raise ParseError(
                    f"number {value} out of range at offset {self._offsets[index]}"
                )
            return Literal(number)
        if kind == "STRING":
            return Literal(value[1:-1].replace("''", "'"))
        if value == "(":
            expr = self.parse_expression()
            self._expect(")")
            return expr
        if value == "-":
            return Arithmetic("-", Literal(0), self._parse_term())
        if value in _CONSTANTS:
            return Literal(_CONSTANTS[value])
        raise ParseError(
            f"unexpected token {value or 'end of input'!r} "
            f"at offset {self._offsets[index]}"
        )

    def _parse_identifier_term(self, name: str) -> Expression:
        word = self._values[self._index]
        if word == ".":
            self._index += 1
            column = self._expect_kind("IDENT")
            return ColumnRef(f"{name}.{column}")
        if word != "(":
            return ColumnRef(name)
        upper = name.upper()
        if upper in AGGREGATE_FUNCTIONS:
            return self._parse_aggregate(upper)
        if upper in SCALAR_FUNCTIONS:
            self._index += 1
            arg = self.parse_expression()
            self._expect(")")
            return FuncCall(upper, arg)
        raise ParseError(f"unknown function {name!r}")

    def _parse_aggregate(self, name: str) -> Expression:
        self._expect("(")
        if self._accept("*"):
            self._expect(")")
            return AggregateCall(name, None)
        distinct = self._accept("DISTINCT")
        arg = self.parse_expression()
        self._expect(")")
        return AggregateCall(name, arg, distinct=distinct)


def parse(sql: str) -> SelectStatement:
    """Parse a SELECT statement into its AST."""
    return _Parser(sql).parse_select()


def parse_statement(sql: str):
    """Parse any supported statement (SELECT / INSERT / UPDATE / DELETE)."""
    return _Parser(sql).parse_statement()


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar/boolean expression (test helper)."""
    parser = _Parser(text)
    expr = parser.parse_expression()
    parser._expect_kind("EOF")
    return expr
