"""SQL subset parser.

Grammar (case-insensitive keywords)::

    select    := SELECT [DISTINCT] items FROM tables
                 [WHERE expr] [GROUP BY exprs] [HAVING expr]
                 [ORDER BY order_items] [LIMIT int]
    items     := '*' | item (',' item)*
    item      := expr [AS ident] | ident '.' '*'
    tables    := source (',' source | join)*
    source    := ident [AS ident | ident]
    join      := [INNER] JOIN source ON expr
    expr      := or-chain of AND/NOT/comparison/IS NULL/arith terms

The parser produces a :class:`SelectStatement` AST that renders back to SQL
via ``sql()`` — the federated decomposer manufactures fragment SQL this way,
so round-tripping is covered by property tests.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+\.\d+|\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|<>|!=|=|<|>)
  | (?P<punct>[(),.*+\-/%])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # KEYWORD | IDENT | NUMBER | STRING | OP | PUNCT | EOF
    value: str
    position: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        pos = match.end()
        if match.lastgroup == "ws":
            continue
        value = match.group()
        if match.lastgroup == "ident":
            upper = value.upper()
            if upper in KEYWORDS:
                tokens.append(Token("KEYWORD", upper, match.start()))
            else:
                tokens.append(Token("IDENT", value, match.start()))
        elif match.lastgroup == "number":
            tokens.append(Token("NUMBER", value, match.start()))
        elif match.lastgroup == "string":
            tokens.append(Token("STRING", value, match.start()))
        elif match.lastgroup == "op":
            tokens.append(Token("OP", value, match.start()))
        else:
            tokens.append(Token("PUNCT", value, match.start()))
    tokens.append(Token("EOF", "", len(text)))
    return tokens


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

    @property
    def is_select_star(self) -> bool:
        return not self.items

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


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens
        self._index = 0

    # -- token helpers -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        self._index += 1
        return token

    def _check(self, kind: str, value: Optional[str] = None) -> bool:
        token = self._current
        if token.kind != kind:
            return False
        return value is None or token.value == value

    def _accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, value):
            return self._advance()
        return None

    def _expect(self, kind: str, value: Optional[str] = None) -> Token:
        if not self._check(kind, value):
            token = self._current
            want = value or kind
            raise ParseError(
                f"expected {want} at offset {token.position}, "
                f"found {token.value or 'end of input'!r}"
            )
        return self._advance()

    def _accept_keyword(self, word: str) -> bool:
        return self._accept("KEYWORD", word) is not None

    # -- grammar -----------------------------------------------------------

    def parse_statement(self):
        if self._check("KEYWORD", "SELECT"):
            return self.parse_select()
        if self._check("KEYWORD", "INSERT"):
            return self._parse_insert()
        if self._check("KEYWORD", "UPDATE"):
            return self._parse_update()
        if self._check("KEYWORD", "DELETE"):
            return self._parse_delete()
        token = self._current
        raise ParseError(
            f"expected a statement, found {token.value or 'end of input'!r}"
        )

    def _parse_insert(self) -> InsertStatement:
        self._expect("KEYWORD", "INSERT")
        self._expect("KEYWORD", "INTO")
        table = self._expect("IDENT").value
        columns: List[str] = []
        if self._accept("PUNCT", "("):
            columns.append(self._expect("IDENT").value)
            while self._accept("PUNCT", ","):
                columns.append(self._expect("IDENT").value)
            self._expect("PUNCT", ")")
        self._expect("KEYWORD", "VALUES")
        rows: List[Tuple[Expression, ...]] = []
        while True:
            self._expect("PUNCT", "(")
            values = [self.parse_expression()]
            while self._accept("PUNCT", ","):
                values.append(self.parse_expression())
            self._expect("PUNCT", ")")
            rows.append(tuple(values))
            if not self._accept("PUNCT", ","):
                break
        self._expect("EOF")
        return InsertStatement(
            table=table, columns=tuple(columns), rows=tuple(rows)
        )

    def _parse_update(self) -> UpdateStatement:
        self._expect("KEYWORD", "UPDATE")
        table = self._expect("IDENT").value
        self._expect("KEYWORD", "SET")
        assignments = [self._parse_assignment()]
        while self._accept("PUNCT", ","):
            assignments.append(self._parse_assignment())
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        self._expect("EOF")
        return UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _parse_assignment(self) -> Assignment:
        column = self._expect("IDENT").value
        self._expect("OP", "=")
        return Assignment(column=column, value=self.parse_expression())

    def _parse_delete(self) -> DeleteStatement:
        self._expect("KEYWORD", "DELETE")
        self._expect("KEYWORD", "FROM")
        table = self._expect("IDENT").value
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        self._expect("EOF")
        return DeleteStatement(table=table, where=where)

    def parse_select(self) -> SelectStatement:
        self._expect("KEYWORD", "SELECT")
        distinct = self._accept_keyword("DISTINCT")
        items = self._parse_select_items()
        self._expect("KEYWORD", "FROM")
        tables, joins = self._parse_from()
        where = None
        if self._accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by: Tuple[Expression, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect("KEYWORD", "BY")
            group_by = tuple(self._parse_expression_list())
        having = None
        if self._accept_keyword("HAVING"):
            having = self.parse_expression()
        order_by: Tuple[OrderItem, ...] = ()
        if self._accept_keyword("ORDER"):
            self._expect("KEYWORD", "BY")
            order_by = tuple(self._parse_order_items())
        limit = None
        if self._accept_keyword("LIMIT"):
            token = self._expect("NUMBER")
            if "." in token.value:
                raise ParseError(f"LIMIT must be an integer, got {token.value}")
            limit = int(token.value)
        self._expect("EOF")
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
        if self._accept("PUNCT", "*"):
            return ()
        items = [self._parse_select_item()]
        while self._accept("PUNCT", ","):
            items.append(self._parse_select_item())
        return tuple(items)

    def _parse_select_item(self) -> SelectItem:
        # t.* form: IDENT '.' '*'
        if (
            self._check("IDENT")
            and self._index + 2 < len(self._tokens)
            and self._tokens[self._index + 1].value == "."
            and self._tokens[self._index + 2].value == "*"
        ):
            table = self._advance().value
            self._advance()  # '.'
            self._advance()  # '*'
            return SelectItem(expr=None, star_table=table)
        expr = self.parse_expression()
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect("IDENT").value
        elif self._check("IDENT"):
            alias = self._advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_from(self) -> Tuple[Tuple[TableRef, ...], Tuple[JoinClause, ...]]:
        tables = [self._parse_table_ref()]
        joins: List[JoinClause] = []
        while True:
            if self._accept("PUNCT", ","):
                tables.append(self._parse_table_ref())
                continue
            is_join = (
                self._check("KEYWORD", "JOIN")
                or self._check("KEYWORD", "INNER")
                or self._check("KEYWORD", "LEFT")
            )
            if not is_join:
                break
            outer = False
            if self._accept_keyword("LEFT"):
                self._accept_keyword("OUTER")
                outer = True
            else:
                self._accept_keyword("INNER")
            self._expect("KEYWORD", "JOIN")
            table = self._parse_table_ref()
            self._expect("KEYWORD", "ON")
            condition = self.parse_expression()
            joins.append(
                JoinClause(table=table, condition=condition, outer=outer)
            )
        return tuple(tables), tuple(joins)

    def _parse_table_ref(self) -> TableRef:
        name = self._expect("IDENT").value
        alias = None
        if self._accept_keyword("AS"):
            alias = self._expect("IDENT").value
        elif self._check("IDENT"):
            alias = self._advance().value
        return TableRef(name=name, alias=alias)

    def _parse_expression_list(self) -> List[Expression]:
        exprs = [self.parse_expression()]
        while self._accept("PUNCT", ","):
            exprs.append(self.parse_expression())
        return exprs

    def _parse_order_items(self) -> List[OrderItem]:
        items = []
        while True:
            expr = self.parse_expression()
            ascending = True
            if self._accept_keyword("DESC"):
                ascending = False
            else:
                self._accept_keyword("ASC")
            items.append(OrderItem(expr=expr, ascending=ascending))
            if not self._accept("PUNCT", ","):
                return items

    # expression precedence: OR < AND < NOT < comparison < additive < term
    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self._accept_keyword("OR"):
            left = Or(left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self._accept_keyword("AND"):
            left = And(left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self._accept_keyword("NOT"):
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        if self._check("OP"):
            op = self._advance().value
            right = self._parse_additive()
            return Comparison(op, left, right)
        if self._accept_keyword("IS"):
            negated = self._accept_keyword("NOT")
            self._expect("KEYWORD", "NULL")
            return IsNull(left, negated=negated)
        if self._accept_keyword("BETWEEN"):
            low = self._parse_additive()
            self._expect("KEYWORD", "AND")
            high = self._parse_additive()
            return And(Comparison(">=", left, low), Comparison("<=", left, high))
        negated = False
        if self._check("KEYWORD", "NOT"):
            after = self._tokens[self._index + 1]
            if after.kind == "KEYWORD" and after.value in ("IN", "LIKE"):
                self._advance()
                negated = True
            else:
                return left
        if self._accept_keyword("LIKE"):
            pattern_token = self._expect("STRING")
            pattern = pattern_token.value[1:-1].replace("''", "'")
            return Like(left, pattern, negated=negated)
        if self._accept_keyword("IN"):
            self._expect("PUNCT", "(")
            values = [self._parse_in_value()]
            while self._accept("PUNCT", ","):
                values.append(self._parse_in_value())
            self._expect("PUNCT", ")")
            return InList(left, tuple(values), negated=negated)
        if negated:  # pragma: no cover - unreachable, guarded above
            raise ParseError("dangling NOT")
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
        while self._check("PUNCT", "+") or self._check("PUNCT", "-"):
            op = self._advance().value
            left = Arithmetic(op, left, self._parse_multiplicative())
        return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_term()
        while (
            self._check("PUNCT", "*")
            or self._check("PUNCT", "/")
            or self._check("PUNCT", "%")
        ):
            op = self._advance().value
            left = Arithmetic(op, left, self._parse_term())
        return left

    def _parse_term(self) -> Expression:
        if self._accept("PUNCT", "("):
            expr = self.parse_expression()
            self._expect("PUNCT", ")")
            return expr
        if self._check("NUMBER"):
            raw = self._advance().value
            return Literal(float(raw) if "." in raw else int(raw))
        if self._check("STRING"):
            raw = self._advance().value
            return Literal(raw[1:-1].replace("''", "'"))
        if self._accept_keyword("NULL"):
            return Literal(None)
        if self._accept_keyword("TRUE"):
            return Literal(True)
        if self._accept_keyword("FALSE"):
            return Literal(False)
        if self._check("PUNCT", "-"):
            self._advance()
            operand = self._parse_term()
            return Arithmetic("-", Literal(0), operand)
        if self._check("IDENT"):
            return self._parse_identifier_term()
        token = self._current
        raise ParseError(
            f"unexpected token {token.value or 'end of input'!r} "
            f"at offset {token.position}"
        )

    def _parse_identifier_term(self) -> Expression:
        name = self._advance().value
        upper = name.upper()
        if self._check("PUNCT", "("):
            if upper in AGGREGATE_FUNCTIONS:
                return self._parse_aggregate(upper)
            if upper in SCALAR_FUNCTIONS:
                self._advance()
                arg = self.parse_expression()
                self._expect("PUNCT", ")")
                return FuncCall(upper, arg)
            raise ParseError(f"unknown function {name!r}")
        if self._accept("PUNCT", "."):
            column = self._expect("IDENT").value
            return ColumnRef(f"{name}.{column}")
        return ColumnRef(name)

    def _parse_aggregate(self, name: str) -> Expression:
        self._expect("PUNCT", "(")
        if self._accept("PUNCT", "*"):
            self._expect("PUNCT", ")")
            return AggregateCall(name, None)
        distinct = self._accept_keyword("DISTINCT")
        arg = self.parse_expression()
        self._expect("PUNCT", ")")
        return AggregateCall(name, arg, distinct=distinct)


def parse(sql: str) -> SelectStatement:
    """Parse a SELECT statement into its AST."""
    return _Parser(tokenize(sql)).parse_select()


def parse_statement(sql: str):
    """Parse any supported statement (SELECT / INSERT / UPDATE / DELETE)."""
    return _Parser(tokenize(sql)).parse_statement()


def parse_expression(text: str) -> Expression:
    """Parse a standalone scalar/boolean expression (test helper)."""
    parser = _Parser(tokenize(text))
    expr = parser.parse_expression()
    parser._expect("EOF")
    return expr
