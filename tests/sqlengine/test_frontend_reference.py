"""The SQL front end against the front end it replaced, text for text.

Kept here as the reference: the parent commit's tokenizer (one ``Token``
object per match, whitespace matched as a token), its recursive descent
(``_check`` / ``_accept`` / ``_expect`` over a ``Token`` list) and its
binder rewrite (``_qualify`` cloning every node through an ``isinstance``
ladder, ``has_column`` by ``try`` / ``except``).  Generated SELECT and
DML texts, the same texts with one token deleted, duplicated or swapped,
and arbitrary strings over an SQL-ish alphabet go through both:

* accepted texts give ``==`` ASTs and equal ``.sql()``, rejected texts a
  ``ParseError`` with the same message, offset included;
* ``tokenize`` returns ``==`` ``Token`` lists;
* ``bind`` of every accepted SELECT against the workload catalog gives
  an ``==`` ``QueryBlock`` or an error of the same class and text.

One rule differs on purpose (:func:`under_number_rule`): a number token
the reference ends directly before an identifier character, and a
decimal literal that overflows to ``inf``.  Those texts are skipped
here and pinned in ``test_parser.py::TestNumberRule``.
"""

import re
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from repro.sqlengine import (
    Column,
    Database,
    ParseError,
    Schema,
    SchemaError,
    SqlError,
    bind,
    logical,
    parse,
    parse_statement,
)
from repro.sqlengine import expressions as E
from repro.sqlengine.expressions import (
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
from repro.sqlengine.logical import BindError
from repro.sqlengine.parser import (
    KEYWORDS,
    Assignment,
    DeleteStatement,
    InsertStatement,
    JoinClause,
    OrderItem,
    SelectItem,
    SelectStatement,
    TableRef,
    Token,
    UpdateStatement,
    tokenize,
)
from repro.workload import TEST_SCALE
from repro.workload.queries import EXTENDED_QUERY_TYPES
from repro.workload.schema import table_specs

# --------------------------------------------------------------------------
# The reference: the parent commit's code, names prefixed
# --------------------------------------------------------------------------

_REFERENCE_TOKEN_RE = re.compile(
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



def reference_tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
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


class ReferenceParser:
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
            and isinstance(expr.right.value, (int, float))  # TRUE is 1
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


def _reference_binding_of(name: str, input_schemas: Dict[str, Schema]) -> str:
    """Resolve a column reference to the unique binding that provides it."""
    table, _, bare = name.rpartition(".")
    if table:
        if table not in input_schemas:
            raise BindError(f"unknown table reference {table!r} in {name!r}")
        if not _reference_has_column(input_schemas[table], bare):
            raise BindError(f"column {name!r} not found")
        return table
    owners = [
        binding
        for binding, schema in input_schemas.items()
        if _reference_has_column(schema, bare)
    ]
    if not owners:
        raise BindError(f"column {name!r} not found in any table")
    if len(owners) > 1:
        raise BindError(
            f"ambiguous column {name!r} (in {', '.join(sorted(owners))})"
        )
    return owners[0]


def reference_qualify(expr: Expression, input_schemas: Dict[str, Schema]) -> Expression:
    """Rewrite bare column refs into fully qualified ones."""
    if isinstance(expr, ColumnRef):
        binding = _reference_binding_of(expr.name, input_schemas)
        return ColumnRef(f"{binding}.{expr.bare_name}")
    replacements = tuple(
        reference_qualify(child, input_schemas) for child in expr.children()
    )
    if not replacements:
        return expr
    return reference_rebuild(expr, replacements)


def reference_rebuild(expr: Expression, children: Tuple[Expression, ...]) -> Expression:
    """Clone an expression node with new children."""
    if isinstance(expr, E.Comparison):
        return E.Comparison(expr.op, children[0], children[1])
    if isinstance(expr, E.And):
        return E.And(children[0], children[1])
    if isinstance(expr, E.Or):
        return E.Or(children[0], children[1])
    if isinstance(expr, E.Not):
        return E.Not(children[0])
    if isinstance(expr, E.IsNull):
        return E.IsNull(children[0], expr.negated)
    if isinstance(expr, E.Like):
        return E.Like(children[0], expr.pattern, expr.negated)
    if isinstance(expr, E.InList):
        return E.InList(children[0], expr.values, expr.negated)
    if isinstance(expr, E.Arithmetic):
        return E.Arithmetic(expr.op, children[0], children[1])
    if isinstance(expr, E.FuncCall):
        return E.FuncCall(expr.name, children[0])
    if isinstance(expr, E.AggregateCall):
        return E.AggregateCall(expr.name, children[0], expr.distinct)
    raise BindError(f"cannot rebuild expression node {type(expr).__name__}")




def _reference_has_column(schema: Schema, name: str) -> bool:
    try:
        schema.index_of(name)
    except SchemaError:
        return False
    return True


def reference_parse_statement(text: str):
    return ReferenceParser(reference_tokenize(text)).parse_statement()


# --------------------------------------------------------------------------
# The one intended difference
# --------------------------------------------------------------------------


def under_number_rule(text: str) -> bool:
    """Whether the new number rule reads *text* differently.

    True when a number token of the reference is directly followed by an
    identifier character (``12abc`` was ``12`` then ``abc``, ``1e5`` was
    ``1`` then ``e5``; now the first is malformed and the second a
    float), or is a decimal literal too large for a float (was ``inf``,
    now rejected).  Only the part the reference can tokenize counts: past
    its first unexpected character both stop with the same message.
    """
    pos = 0
    while pos < len(text):
        match = _REFERENCE_TOKEN_RE.match(text, pos)
        if match is None:
            return False
        pos = match.end()
        if match.lastgroup == "number":
            if re.match(r"[A-Za-z_]", text[pos:pos + 1]):
                return True
            if "." in match.group() and float(match.group()) == float("inf"):
                return True
    return False


# --------------------------------------------------------------------------
# Generated texts
# --------------------------------------------------------------------------

TABLES: Dict[str, Tuple[str, ...]] = {
    spec.name: tuple(name for name, _, _ in spec.columns)
    for spec in table_specs(TEST_SCALE)
}


def _keyword(word: str):
    """*word* as written by hand: upper, lower or capitalised."""
    return st.sampled_from([word, word, word.lower(), word.capitalize()])


@st.composite
def _sources(draw):
    """FROM clause text and the (binding, columns) pairs it brings in."""
    names = draw(
        st.lists(st.sampled_from(sorted(TABLES)), min_size=1, max_size=3, unique=True)
    )
    bound, text = [], ""
    for position, name in enumerate(names):
        # "or" (orders) is a keyword: an alias the parsers must refuse.
        alias = draw(st.sampled_from([None, name[0], name[0], name[:3], name[:2], "x"]))
        ref = name
        if alias is not None:
            ref += draw(st.sampled_from([" AS ", " "])) + alias
        bound.append((alias or name, TABLES[name]))
        if position == 0:
            text = ref
            continue
        joiner = draw(
            st.sampled_from([",", "JOIN", "INNER JOIN", "LEFT JOIN", "LEFT OUTER JOIN"])
        )
        if joiner == ",":
            text += f", {ref}"
        else:
            condition = draw(_predicates(tuple(bound), depth=1))
            text += f" {joiner} {ref} ON {condition}"
    return text, tuple(bound)


def _columns(bound):
    qualified = [f"{b}.{c}" for b, columns in bound for c in columns]
    bare = [c for _, columns in bound for c in columns]
    # Mostly resolvable; bare names may be ambiguous, "zz" binds nowhere.
    return st.one_of(
        *[st.sampled_from(qualified)] * 8,
        st.sampled_from(bare),
        st.sampled_from(bare + ["zz", "x.zz", "nobody.custkey"]),
    )


_NUMBERS = st.one_of(
    st.integers(0, 10_000).map(str),
    st.decimals(0, 10_000, places=2).map(lambda d: f"{d:f}"),
)
_STRINGS = st.sampled_from(["'AUTO'", "'a''b'", "''", "'%x_'", "'SELECT'"])
_LITERALS = st.one_of(_NUMBERS, _NUMBERS, _STRINGS, st.sampled_from(["NULL", "TRUE", "false"]))


def _terms(bound, depth=2):
    leaf = st.one_of(_columns(bound), _columns(bound), _LITERALS)
    if depth == 0:
        return leaf
    inner = _terms(bound, depth - 1)
    return st.one_of(
        leaf,
        leaf,
        st.tuples(inner, st.sampled_from("+-*/%"), inner).map(" ".join),
        st.tuples(inner, st.sampled_from("+-*/%"), inner).map(
            lambda parts: f"({' '.join(parts)})"
        ),
        inner.map(lambda t: f"-{t}"),
        inner.map(lambda t: f"(({t}))"),
        st.tuples(st.sampled_from(["ABS", "upper", "LENGTH", "nosuch"]), inner).map(
            lambda parts: f"{parts[0]}({parts[1]})"
        ),
    )


@st.composite
def _predicates(draw, bound, depth=2):
    term = _terms(bound, 1)
    kind = draw(st.integers(0, 9 if depth else 6))
    left = draw(term)
    if kind == 0:
        return f"{left} {draw(st.sampled_from(['=', '!=', '<>', '<', '<=', '>', '>=']))} {draw(term)}"
    if kind == 1:
        return f"{left} IS {draw(st.sampled_from(['', 'NOT ']))}NULL"
    if kind == 2:
        return f"{left} BETWEEN {draw(term)} AND {draw(term)}"
    if kind == 3:
        values = draw(st.lists(st.one_of(_LITERALS, _NUMBERS.map("-{}".format)), min_size=1, max_size=3))
        return f"{left} {draw(st.sampled_from(['', 'NOT ']))}IN ({', '.join(values)})"
    if kind == 4:
        return f"{left} {draw(st.sampled_from(['', 'not ']))}LIKE {draw(_STRINGS)}"
    if kind == 5:
        return f"{left} > {draw(term)}"
    if kind == 6:
        return left  # a bare term where a predicate is expected
    inner = _predicates(bound, depth - 1)
    if kind == 7:
        return f"NOT {draw(inner)}"
    connective = draw(st.sampled_from(["AND", "OR", "and"]))
    joined = f"{draw(inner)} {connective} {draw(inner)}"
    return f"({joined})" if kind == 8 else joined


def _aggregates(bound):
    argument = _terms(bound, 1)
    return st.one_of(
        st.just("COUNT(*)"),
        st.tuples(
            st.sampled_from(["SUM", "avg", "MIN", "MAX", "COUNT"]),
            st.sampled_from(["", "DISTINCT "]),
            argument,
        ).map(lambda parts: f"{parts[0]}({parts[1]}{parts[2]})"),
    )


@st.composite
def _selects(draw):
    source, bound = draw(_sources())
    aliases = st.sampled_from(["", "", " AS a1", " n"])
    # "plain" and "grouped" shapes usually bind; "free" mixes everything.
    shape = draw(st.sampled_from(["plain", "grouped", "free"]))
    keys = draw(st.lists(_terms(bound, 1), min_size=1, max_size=2))
    if shape == "grouped":
        items = [key + draw(aliases) for key in keys]
        items += draw(st.lists(_aggregates(bound), min_size=1, max_size=3))
    else:
        item = _terms(bound) if shape == "plain" else st.one_of(_terms(bound), _aggregates(bound))
        star = st.sampled_from([f"{b}.*" for b, _ in bound] * 4 + ["nobody.*"])
        items = draw(
            st.one_of(
                st.just(["*"]),
                st.lists(st.one_of(*[st.tuples(item, aliases).map("".join)] * 4, star), min_size=1, max_size=4),
            )
        )
    parts = [draw(_keyword("SELECT"))]
    if draw(st.integers(0, 3)) == 0:
        parts.append("DISTINCT")
    parts += [", ".join(items), draw(_keyword("FROM")), source]
    if draw(st.booleans()):
        parts += [draw(_keyword("WHERE")), draw(_predicates(bound))]
    if shape == "grouped" or (shape == "free" and draw(st.booleans())):
        parts += ["GROUP BY", ", ".join(keys)]
        if draw(st.booleans()):
            having = st.tuples(_aggregates(bound), st.sampled_from([">", "<="]), _NUMBERS)
            parts += ["HAVING", draw(st.one_of(having.map(" ".join), _predicates(bound, depth=1)))]
    if draw(st.booleans()):
        order = st.tuples(
            st.sampled_from(keys) if shape == "grouped" else _terms(bound, 1),
            st.sampled_from(["", " ASC", " DESC", " desc"]),
        )
        parts += ["ORDER BY", ", ".join(draw(st.lists(order.map("".join), min_size=1, max_size=2)))]
    if draw(st.booleans()):
        limit = st.one_of(*[st.integers(0, 99).map(str)] * 5, _NUMBERS)
        parts += [draw(_keyword("LIMIT")), draw(limit)]
    return " ".join(parts)


@st.composite
def _dml(draw):
    table = draw(st.sampled_from(sorted(TABLES)))
    bound = ((table, TABLES[table]),)
    value = _terms(bound, 1)
    where = ""
    if draw(st.booleans()):
        where = f" WHERE {draw(_predicates(bound, depth=1))}"
    kind = draw(st.sampled_from(["insert", "update", "delete"]))
    if kind == "delete":
        return f"DELETE FROM {table}{where}"
    if kind == "update":
        assignments = draw(
            st.lists(st.tuples(st.sampled_from(TABLES[table]), value), min_size=1, max_size=3)
        )
        return f"UPDATE {table} SET {', '.join(f'{c} = {v}' for c, v in assignments)}{where}"
    columns = ""
    if draw(st.booleans()):
        columns = f" ({', '.join(draw(st.lists(st.sampled_from(TABLES[table]), min_size=1, max_size=3)))})"
    rows = draw(st.lists(st.lists(value, min_size=1, max_size=3), min_size=1, max_size=2))
    return f"INSERT INTO {table}{columns} VALUES {', '.join('(' + ', '.join(row) + ')' for row in rows)}"


_STATEMENTS = st.one_of(_selects(), _selects(), _selects(), _dml())


@st.composite
def _damaged(draw):
    """A generated statement with one token deleted, duplicated or
    swapped with its successor (tokens re-joined by single spaces)."""
    text = draw(_STATEMENTS)
    pieces = [token.value for token in reference_tokenize(text)[:-1]]
    index = draw(st.integers(0, len(pieces) - 1))
    damage = draw(st.sampled_from(["delete", "duplicate", "swap"]))
    if damage == "delete":
        del pieces[index]
    elif damage == "duplicate":
        pieces.insert(index, pieces[index])
    elif index + 1 < len(pieces):
        pieces[index], pieces[index + 1] = pieces[index + 1], pieces[index]
    return " ".join(pieces)


# --------------------------------------------------------------------------
# The comparison
# --------------------------------------------------------------------------


def _catalog():
    database = Database("reference")
    for spec in table_specs(TEST_SCALE):
        database.create_table(
            spec.name, Schema([Column(name, ctype) for name, ctype, _ in spec.columns])
        )
    return database.catalog


CATALOG = _catalog()


def _parsed(parser, text):
    try:
        statement = parser(text)
    except ParseError as exc:
        return "rejected", str(exc)
    return "accepted", statement, statement.sql()


def _bound(statement):
    try:
        return bind(statement, CATALOG)
    except SqlError as exc:
        return type(exc), str(exc)


def compare_with_reference(text: str) -> Tuple[str, ...]:
    """Assert both front ends read *text* alike; say what became of it."""
    ours, theirs = _parsed(parse_statement, text), _parsed(reference_parse_statement, text)
    assert ours == theirs, text
    if ours[0] == "rejected" or not isinstance(ours[1], SelectStatement):
        return (ours[0],)
    block = _bound(ours[1])
    with mock.patch.object(logical, "_qualify", reference_qualify):
        reference_block = _bound(theirs[1])
    assert block == reference_block, text
    return "accepted", "bound" if isinstance(block, logical.QueryBlock) else block[0].__name__


def check_against_reference(text: str) -> None:
    assume(not under_number_rule(text))
    for outcome in compare_with_reference(text):
        event(outcome)


class TestAgainstReference:
    @given(_STATEMENTS)
    @settings(deadline=None)
    @example("SELECT o.priority, COUNT(*) AS cnt FROM orders o JOIN lineitem l "
             "ON o.orderkey = l.orderkey WHERE o.totalprice > 5531.77 GROUP BY o.priority")
    @example("SELECT priority p, totalprice * 2 FROM orders WHERE custkey BETWEEN 1 AND 9")
    # ORDER BY 1 sorts on the first select item, c.custkey, on both sides:
    # the reference binds through ``bind`` with only ``_qualify`` swapped.
    @example("SELECT c.*, o.orderkey FROM customer c LEFT OUTER JOIN orders o "
             "ON c.custkey = o.custkey WHERE NOT c.segment NOT LIKE 'A%' ORDER BY 1 DESC LIMIT 5")
    def test_generated_statements(self, text):
        check_against_reference(text)

    @given(_damaged())
    @settings(deadline=None)
    def test_one_token_deleted_duplicated_or_swapped(self, text):
        check_against_reference(text)

    @given(st.text(alphabet="SELCTFROMWHNDIKBYselctfrom tx.*(),'<>=!+-/%0123456789\n@", max_size=60))
    @settings(deadline=None)
    @example("SELECT a FROM t WHERE a NOT")
    @example("SELECT t. FROM t")
    @example("SELECT a.* b FROM")
    @example("SELECT 'it''s' FROM t -")
    @example("  \n ")
    def test_arbitrary_text(self, text):
        check_against_reference(text)

    @given(st.one_of(_STATEMENTS, _damaged(), st.text(max_size=80)))
    @settings(deadline=None)
    def test_tokenize_gives_the_same_tokens(self, text):
        assume(not under_number_rule(text))
        try:
            expected = reference_tokenize(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                tokenize(text)
            assert str(caught.value) == str(exc)
        else:
            assert tokenize(text) == expected


class TestNumberRuleIsTheOnlyException:
    """What :func:`under_number_rule` skips, listed."""

    @pytest.mark.parametrize(
        "text",
        ["SELECT 12abc FROM t", "SELECT 1e5 FROM t", "SELECT 1.5e-3x FROM t",
         "SELECT a FROM t LIMIT 1e2", "SELECT 1" + "0" * 400 + ".0 FROM t",
         "12abc @"],
        ids=lambda text: text[:24],
    )
    def test_skipped(self, text):
        assert under_number_rule(text)

    @pytest.mark.parametrize(
        "text",
        ["SELECT 12 abc FROM t", "SELECT a1b FROM t", "SELECT 'x 1e5' FROM t",
         "SELECT 1.e5 FROM t", "SELECT 1 . 5 FROM t", "SELECT 1" + "0" * 400 + " FROM t",
         "@ 12abc"],
        ids=lambda text: text[:24],
    )
    def test_compared(self, text):
        assert not under_number_rule(text)
        compare_with_reference(text)


# --------------------------------------------------------------------------
# The rendered text of a statement
# --------------------------------------------------------------------------


def check_round_trip(statement: SelectStatement) -> None:
    """``parse(s.sql()) == s``, with the same text again and the same
    bound block (or bind error): the decomposer offers its own parse of
    a query to the servers that explain the query's rendered text."""
    text = statement.sql()
    again = parse(text)
    assert again == statement, text
    assert again.sql() == text
    assert _bound(again) == _bound(statement), text


class TestRenderedTextRoundTrips:
    @given(_selects())
    @settings(deadline=None)
    def test_generated_selects(self, text):
        try:
            statement = parse(text)
        except ParseError:
            event("rejected")
            return
        event("accepted")
        check_round_trip(statement)

    @pytest.mark.parametrize(
        "template", EXTENDED_QUERY_TYPES, ids=lambda template: template.name
    )
    def test_query_type_texts(self, template):
        for instance in template.instances(25):
            check_round_trip(parse(instance.sql))
