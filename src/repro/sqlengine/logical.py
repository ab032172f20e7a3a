"""Logical query representation and binding.

Rather than a fixed operator tree, a bound query is normalised into a
:class:`QueryBlock`: base relations with pushed-down local predicates, a
set of equijoin edges, residual predicates, and the projection /
aggregation / ordering surface.  The optimizer enumerates join orders and
physical operators over this block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from . import expressions as E
from .catalog import Catalog, TableDef
from .expressions import (
    ColumnRef,
    Comparison,
    Expression,
    combine_conjuncts,
    conjuncts,
    is_equijoin_conjunct,
    walk,
)
from .parser import SelectItem, SelectStatement, OrderItem
from .types import Column, ColumnType, Schema, SchemaError, SqlError


class BindError(SqlError):
    """Raised when a statement does not bind against the catalog."""


@dataclass(frozen=True)
class BoundRelation:
    """A base table occurrence with its binding name and local predicate."""

    binding: str
    table: TableDef
    predicate: Optional[Expression] = None

    @property
    def schema(self) -> Schema:
        return self.table.schema.rename_table(self.binding)


@dataclass(frozen=True)
class JoinEdge:
    """An equijoin conjunct connecting two bound relations."""

    left_binding: str
    left_column: str
    right_binding: str
    right_column: str

    def connects(self, left: FrozenSet[str], right: FrozenSet[str]) -> bool:
        return (self.left_binding in left and self.right_binding in right) or (
            self.left_binding in right and self.right_binding in left
        )

    def oriented(self, left: FrozenSet[str]) -> Tuple[str, str]:
        """Return (left_col, right_col) oriented so left_col is in *left*."""
        if self.left_binding in left:
            return self.left_column, self.right_column
        return self.right_column, self.left_column

    def expression(self) -> Expression:
        return Comparison(
            "=", ColumnRef(self.left_column), ColumnRef(self.right_column)
        )


@dataclass(frozen=True)
class FixedJoinStep:
    """One step of a fixed (non-reorderable) join chain.

    Outer joins pin the join order: the optimizer must not commute or
    reassociate across them, so a query containing any LEFT JOIN binds
    to an ordered chain instead of the edge-set normal form.
    """

    binding: str
    condition: Expression
    outer: bool


@dataclass(frozen=True)
class QueryBlock:
    """A bound, normalised single-block SELECT."""

    relations: Dict[str, BoundRelation]
    join_edges: Tuple[JoinEdge, ...]
    residual: Optional[Expression]
    items: Tuple[SelectItem, ...]
    output_schema: Schema
    group_by: Tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: Tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    distinct: bool = False
    #: Non-empty when the statement contains outer joins: the ordered
    #: chain starting at ``fixed_join_root``; ``join_edges`` is empty
    #: and no predicates are pushed into scans in this mode.
    fixed_joins: Tuple[FixedJoinStep, ...] = ()
    fixed_join_root: Optional[str] = None

    @property
    def has_aggregation(self) -> bool:
        if self.group_by:
            return True
        return any(item.expr.contains_aggregate() for item in self.items)


def _qualify_column(ref: ColumnRef, input_schemas: Dict[str, Schema]) -> ColumnRef:
    """*ref* under the unique binding that provides it."""
    name = ref.name
    table, _, bare = name.rpartition(".")
    if table:
        if table not in input_schemas:
            raise BindError(f"unknown table reference {table!r} in {name!r}")
        if not input_schemas[table].has_column(bare):
            raise BindError(f"column {name!r} not found")
        return ref
    owners = [
        binding
        for binding, schema in input_schemas.items()
        if schema.has_column(bare)
    ]
    if not owners:
        raise BindError(f"column {name!r} not found in any table")
    if len(owners) > 1:
        raise BindError(
            f"ambiguous column {name!r} (in {', '.join(sorted(owners))})"
        )
    return ColumnRef(f"{owners[0]}.{bare}")


def _qualify(expr: Expression, input_schemas: Dict[str, Schema]) -> Expression:
    """Rewrite bare column refs into fully qualified ones.

    Expression nodes are frozen, so a subtree that needs no rewriting is
    returned as it is: the bound block shares it with the statement.
    """
    if isinstance(expr, ColumnRef):
        return _qualify_column(expr, input_schemas)
    changed = False
    replacements = []
    for child in expr.children():
        replacement = _qualify(child, input_schemas)
        if replacement is not child:
            changed = True
        replacements.append(replacement)
    return _rebuild(expr, replacements) if changed else expr


#: Node type -> clone of such a node over new children.
_REBUILDERS = {
    E.Comparison: lambda e, c: E.Comparison(e.op, c[0], c[1]),
    E.And: lambda e, c: E.And(c[0], c[1]),
    E.Or: lambda e, c: E.Or(c[0], c[1]),
    E.Not: lambda e, c: E.Not(c[0]),
    E.IsNull: lambda e, c: E.IsNull(c[0], e.negated),
    E.Like: lambda e, c: E.Like(c[0], e.pattern, e.negated),
    E.InList: lambda e, c: E.InList(c[0], e.values, e.negated),
    E.Arithmetic: lambda e, c: E.Arithmetic(e.op, c[0], c[1]),
    E.FuncCall: lambda e, c: E.FuncCall(e.name, c[0]),
    E.AggregateCall: lambda e, c: E.AggregateCall(e.name, c[0], e.distinct),
}


def _rebuild(expr: Expression, children: Sequence[Expression]) -> Expression:
    """Clone an expression node with new children."""
    rebuilder = _REBUILDERS.get(type(expr))
    if rebuilder is None:
        raise BindError(f"cannot rebuild expression node {type(expr).__name__}")
    return rebuilder(expr, children)


def _referenced_bindings(expr: Expression) -> Set[str]:
    bindings = set()
    for node in walk(expr):
        if isinstance(node, ColumnRef) and node.table:
            bindings.add(node.table)
    return bindings


def bind(statement: SelectStatement, catalog: Catalog) -> QueryBlock:
    """Bind and normalise a parsed statement against *catalog*."""
    input_schemas: Dict[str, Schema] = {}
    table_defs: Dict[str, TableDef] = {}
    refs = list(statement.tables) + [j.table for j in statement.joins]
    for ref in refs:
        if not catalog.has_table(ref.name):
            raise BindError(f"unknown table {ref.name!r}")
        if ref.binding in input_schemas:
            raise BindError(f"duplicate table binding {ref.binding!r}")
        table = catalog.lookup(ref.name)
        table_defs[ref.binding] = table
        input_schemas[ref.binding] = table.schema.rename_table(ref.binding)
    _reject_misplaced_aggregates(statement)

    if any(join.outer for join in statement.joins):
        return _bind_fixed_chain(statement, input_schemas, table_defs)

    # Gather every predicate conjunct (WHERE plus all JOIN ... ON).
    all_conjuncts: List[Expression] = []
    for join in statement.joins:
        all_conjuncts.extend(conjuncts(join.condition))
    all_conjuncts.extend(conjuncts(statement.where))
    all_conjuncts = [_qualify(c, input_schemas) for c in all_conjuncts]

    local: Dict[str, List[Expression]] = {b: [] for b in input_schemas}
    edges: List[JoinEdge] = []
    residual: List[Expression] = []
    for conjunct in all_conjuncts:
        bindings = _referenced_bindings(conjunct)
        if len(bindings) == 1:
            local[next(iter(bindings))].append(conjunct)
        elif is_equijoin_conjunct(conjunct):
            assert isinstance(conjunct, Comparison)
            left = conjunct.left
            right = conjunct.right
            assert isinstance(left, ColumnRef) and isinstance(right, ColumnRef)
            edges.append(
                JoinEdge(
                    left_binding=left.table or "",
                    left_column=left.name,
                    right_binding=right.table or "",
                    right_column=right.name,
                )
            )
        else:
            residual.append(conjunct)

    relations = {
        binding: BoundRelation(
            binding=binding,
            table=table_defs[binding],
            predicate=combine_conjuncts(local[binding]),
        )
        for binding in input_schemas
    }

    block = QueryBlock(
        relations=relations,
        join_edges=tuple(edges),
        residual=combine_conjuncts(residual),
        **_bind_output(statement, input_schemas),
    )
    _validate_aggregation(block)
    _check_types(block)
    return block


def _bind_fixed_chain(
    statement: SelectStatement,
    input_schemas: Dict[str, Schema],
    table_defs: Dict[str, TableDef],
) -> QueryBlock:
    """Bind a statement containing outer joins into a fixed join chain.

    Conservative by design: no predicate pushdown (the WHERE clause runs
    after the whole chain, which is always correct for outer joins) and
    no join reordering.
    """
    if len(statement.tables) != 1:
        raise BindError(
            "outer joins cannot be combined with comma-separated FROM items"
        )
    relations = {
        binding: BoundRelation(
            binding=binding, table=table_defs[binding], predicate=None
        )
        for binding in input_schemas
    }
    steps = tuple(
        FixedJoinStep(
            binding=join.table.binding,
            condition=_qualify(join.condition, input_schemas),
            outer=join.outer,
        )
        for join in statement.joins
    )
    residual = (
        _qualify(statement.where, input_schemas)
        if statement.where is not None
        else None
    )
    block = QueryBlock(
        relations=relations,
        join_edges=(),
        residual=residual,
        **_bind_output(statement, input_schemas),
        fixed_joins=steps,
        fixed_join_root=statement.tables[0].binding,
    )
    _validate_aggregation(block)
    _check_types(block)
    return block


def _bind_output(
    statement: SelectStatement, input_schemas: Dict[str, Schema]
) -> Dict[str, object]:
    """The block's output surface, qualified: select items, grouping,
    ordering.  An integer GROUP BY or ORDER BY key names the select item
    at that 1-based position (SQL-92): the item's expression to group on,
    its output column to sort on."""
    items = _bind_items(statement.items, input_schemas)
    group_by = []
    for key in statement.group_by:
        at = _position(key, items, "GROUP BY")
        group_by.append(_qualify(key, input_schemas) if at is None else items[at].expr)
    having = (
        _qualify(statement.having, input_schemas)
        if statement.having is not None
        else None
    )
    output_schema = _output_schema(items, input_schemas)
    order_by = []
    for o in statement.order_by:
        at = _position(o.expr, items, "ORDER BY")
        if at is None:
            key = _qualify(o.expr, input_schemas)
        else:
            key = ColumnRef(output_schema.columns[at].qualified_name)
        order_by.append(OrderItem(key, o.ascending))
    return dict(
        items=items,
        output_schema=output_schema,
        group_by=tuple(group_by),
        having=having,
        order_by=tuple(order_by),
        limit=statement.limit,
        distinct=statement.distinct,
    )


def _position(
    key: Expression, items: Sequence[SelectItem], clause: str
) -> Optional[int]:
    """The 0-based select-list position an integer *key* names; None for
    any other key."""
    if not (isinstance(key, E.Literal) and type(key.value) is int):
        return None
    if not 1 <= key.value <= len(items):
        raise BindError(
            f"{clause} position {key.value} is not in the select list "
            f"(1 to {len(items)})"
        )
    return key.value - 1


def _bind_items(
    items: Sequence[SelectItem], input_schemas: Dict[str, Schema]
) -> Tuple[SelectItem, ...]:
    bound: List[SelectItem] = []
    if not items:
        # SELECT * expands to every column of every binding, in FROM order.
        for binding, schema in input_schemas.items():
            for col in schema.columns:
                bound.append(
                    SelectItem(expr=ColumnRef(f"{binding}.{col.name}"))
                )
        return tuple(bound)
    for item in items:
        if item.star_table:
            if item.star_table not in input_schemas:
                raise BindError(f"unknown table {item.star_table!r} in select list")
            for col in input_schemas[item.star_table].columns:
                bound.append(
                    SelectItem(expr=ColumnRef(f"{item.star_table}.{col.name}"))
                )
        else:
            assert item.expr is not None
            bound.append(
                SelectItem(
                    expr=_qualify(item.expr, input_schemas), alias=item.alias
                )
            )
    return tuple(bound)


def _output_schema(
    items: Sequence[SelectItem], input_schemas: Dict[str, Schema]
) -> Schema:
    """The select list's columns; a plain column keeps its binding, so
    ORDER BY can name it as the FROM clause does."""
    joined = Schema(
        tuple(
            col
            for schema in input_schemas.values()
            for col in schema.columns
        )
    )
    columns: List[Column] = []
    for ordinal, item in enumerate(items):
        assert item.expr is not None
        try:
            ctype = item.expr.result_type(joined)
        except SchemaError as exc:
            raise BindError(str(exc)) from exc
        plain = isinstance(item.expr, ColumnRef) and not item.alias
        table = item.expr.table if plain else None
        columns.append(Column(item.output_name(ordinal), ctype, table))
    return Schema(tuple(columns))


def _reject_misplaced_aggregates(statement: SelectStatement) -> None:
    """WHERE and ON filter rows before any group exists, a group cannot
    be keyed on its own aggregate, and a sort runs over the finished
    rows (ORDER BY names an aggregate by its select-list position)."""
    clauses = [("WHERE", statement.where)]
    clauses += [("ON", join.condition) for join in statement.joins]
    clauses += [("GROUP BY", key) for key in statement.group_by]
    clauses += [("ORDER BY", o.expr) for o in statement.order_by]
    for clause, expr in clauses:
        if expr is not None and expr.contains_aggregate():
            raise BindError(f"aggregate not allowed in {clause}: {expr.sql()!r}")


def _validate_aggregation(block: QueryBlock) -> None:
    """In an aggregated query, the items and HAVING read columns only
    through group keys and aggregates (what the aggregate's rows hold)."""
    if not block.has_aggregation:
        if block.having is not None:
            raise BindError("HAVING requires GROUP BY or aggregation")
        return
    group_keys = {e.sql() for e in block.group_by}
    for key in block.group_by:  # a position may name an aggregate item
        if key.contains_aggregate():
            raise BindError(f"aggregate not allowed in GROUP BY: {key.sql()!r}")
    for expr in [item.expr for item in block.items] + [block.having]:
        column = None if expr is None else _ungrouped(expr, group_keys)
        if column is not None:
            raise BindError(
                f"column {column.name!r} in {expr.sql()!r} must appear in "
                "GROUP BY or inside an aggregate"
            )


def _ungrouped(expr: Expression, group_keys: Set[str]) -> Optional[ColumnRef]:
    """A column *expr* reads outside its aggregates and group keys."""
    if expr.sql() in group_keys or isinstance(expr, E.AggregateCall):
        return None
    if isinstance(expr, ColumnRef):
        return expr
    for child in expr.children():
        column = _ungrouped(child, group_keys)
        if column is not None:
            return column
    return None


def _check_types(block: QueryBlock) -> None:
    """Type every expression of *block* (:func:`_type_of`); conditions
    must be boolean."""
    joined = Schema(
        tuple(c for r in block.relations.values() for c in r.schema.columns)
    )
    conditions = [r.predicate for r in block.relations.values()]
    conditions += [edge.expression() for edge in block.join_edges]
    conditions += [step.condition for step in block.fixed_joins]
    conditions += [block.residual, block.having]
    for condition in conditions:
        if condition is not None:
            _expect_condition(condition, _type_of(condition, joined))
    for expr in [item.expr for item in block.items] + list(block.group_by):
        _type_of(expr, joined)
    # The sort runs over the select list's output, not over the joined rows.
    for o in block.order_by:
        try:
            _type_of(o.expr, block.output_schema)
        except SchemaError as exc:
            raise BindError(
                f"ORDER BY {o.expr.sql()!r} must name select-list columns: {exc}"
            ) from exc


def _type_of(expr: Expression, schema: Schema) -> Optional[ColumnType]:
    """*expr*'s type over *schema*, ``None`` for NULL (which fits anywhere).

    Raises :class:`BindError` for a well-formed statement that is wrong
    in type, which would otherwise fail (or be false) on every row that
    reached it: a string compared with, or looked up in a list of, a
    non-string; arithmetic on a string other than string + string; LIKE,
    UPPER, LOWER or LENGTH of a non-string; ABS, SUM or AVG of a string;
    a non-boolean operand of AND, OR or NOT.
    """
    if isinstance(expr, E.Literal):
        return None if expr.value is None else expr.result_type(schema)
    if isinstance(expr, ColumnRef):
        return expr.result_type(schema)
    types = [_type_of(child, schema) for child in expr.children()]
    if isinstance(expr, (E.And, E.Or, E.Not)):
        for child, ctype in zip(expr.children(), types):
            _expect_condition(child, ctype)
        return ColumnType.BOOL
    if isinstance(expr, (Comparison, E.InList)):
        others = types[1:] if isinstance(expr, Comparison) else [
            _type_of(E.Literal(value), schema) for value in expr.values
        ]
        for other in others:
            if _clash(types[0], other):
                raise _mismatch(
                    expr, f"cannot compare {_name(types[0])} with {_name(other)}"
                )
        return ColumnType.BOOL
    if isinstance(expr, E.Arithmetic):
        left, right = types
        if ColumnType.STR in types and not (
            expr.op == "+" and {left, right} <= {ColumnType.STR, None}
        ):
            raise _mismatch(
                expr, f"cannot apply {expr.op!r} to {_name(left)} and {_name(right)}"
            )
        if left is None or right is None:
            return left if right is None else right
        if ColumnType.FLOAT in types or expr.op == "/":
            return ColumnType.FLOAT
        return ColumnType.STR if left is ColumnType.STR else ColumnType.INT
    if isinstance(expr, (E.Like, E.FuncCall, E.AggregateCall)) and types:
        (arg,) = types
        name = "LIKE" if isinstance(expr, E.Like) else expr.name.upper()
        needs_string = _NEEDS_STRING.get(name)
        if needs_string is not None and _clash(
            arg, ColumnType.STR if needs_string else ColumnType.INT
        ):
            wanted = "a string" if needs_string else "a number"
            raise _mismatch(expr, f"{name} needs {wanted}, not {_name(arg)}")
        if arg is None and name in ("ABS", "SUM", "MIN", "MAX"):
            return None
    return expr.result_type(schema)


#: Function (or LIKE) -> whether its argument must be a string (True) or
#: must not be (False).
_NEEDS_STRING = {
    "LIKE": True, "UPPER": True, "LOWER": True, "LENGTH": True,
    "ABS": False, "SUM": False, "AVG": False,
}


def _clash(left: Optional[ColumnType], right: Optional[ColumnType]) -> bool:
    """A string against a non-string (NULL clashes with nothing)."""
    if left is None or right is None:
        return False
    return (left is ColumnType.STR) != (right is ColumnType.STR)


def _expect_condition(expr: Expression, ctype: Optional[ColumnType]) -> None:
    if ctype not in (None, ColumnType.BOOL):
        raise _mismatch(expr, f"{_name(ctype)} is not a condition")


def _name(ctype: Optional[ColumnType]) -> str:
    return "NULL" if ctype is None else ctype.value


def _mismatch(expr: Expression, detail: str) -> BindError:
    return BindError(f"type mismatch in {expr.sql()!r}: {detail}")
