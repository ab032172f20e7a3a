"""Federated query decomposition.

The integrator rewrites a federated query (over nicknames) into *query
fragments*, each executable at a single remote server, plus the residual
integration work (cross-source joins, filtering, aggregation) that II
performs locally — step 2 of the paper's compile-time phase.

Fragmentation is co-location driven: two relations may share a fragment
only if they are joined and some server hosts both nicknames.  A fragment's
*candidate servers* are every server hosting all of its nicknames; the
choice among candidates is exactly the routing decision QCC influences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..sqlengine import Column, Schema
from ..sqlengine.database import bind_shape, offer_bound
from ..sqlengine.expressions import Expression
from ..sqlengine.logical import JoinEdge, QueryBlock
from ..sqlengine.parser import SelectStatement
from .nicknames import FederationError, NicknameRegistry


@dataclass(frozen=True)
class QueryFragment:
    """A pushable sub-query in the nickname namespace."""

    fragment_id: str
    sql: str
    bindings: Tuple[str, ...]
    nicknames: Tuple[str, ...]
    candidate_servers: Tuple[str, ...]
    output_schema: Schema
    full_pushdown: bool

    @property
    def signature(self) -> str:
        """Identity of the fragment's *query text* (not its plan).

        QCC keys per-fragment calibration statistics by this signature, so
        re-submissions of the same fragment reuse learned factors.
        """
        return self.sql

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<QueryFragment {self.fragment_id}: {self.sql[:60]}...>"


@dataclass
class DecomposedQuery:
    """A federated query split into fragments plus II-side work."""

    statement: SelectStatement
    block: QueryBlock
    fragments: Tuple[QueryFragment, ...]
    cross_edges: Tuple[JoinEdge, ...]

    @property
    def is_single_fragment(self) -> bool:
        return len(self.fragments) == 1

    def fragment_for_binding(self, binding: str) -> QueryFragment:
        for fragment in self.fragments:
            if binding in fragment.bindings:
                return fragment
        raise FederationError(f"no fragment contains binding {binding!r}")


class _UnionFind:
    def __init__(self, members: Iterable[str]):
        self._parent = {m: m for m in members}

    def find(self, member: str) -> str:
        root = member
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[member] != root:
            self._parent[member], member = root, self._parent[member]
        return root

    def union(self, a: str, b: str) -> None:
        self._parent[self.find(a)] = self.find(b)

    def groups(self) -> Dict[str, List[str]]:
        result: Dict[str, List[str]] = {}
        for member in self._parent:
            result.setdefault(self.find(member), []).append(member)
        return result


def decompose(sql: str, registry: NicknameRegistry) -> DecomposedQuery:
    """Decompose a federated query into co-located fragments."""
    statement, block = bind_shape(sql, registry.global_catalog)

    bindings = list(block.relations)
    nickname_of = {
        binding: relation.table.name
        for binding, relation in block.relations.items()
    }
    for binding in bindings:
        if not registry.servers_for(nickname_of[binding]):
            raise FederationError(
                f"nickname {nickname_of[binding]!r} has no placements"
            )

    # Greedy co-location grouping over join edges.  Outer joins cannot be
    # split across sources: the whole chain must push down to one server
    # hosting every nickname.
    uf = _UnionFind(bindings)
    for edge in block.join_edges:
        left_root = uf.find(edge.left_binding)
        right_root = uf.find(edge.right_binding)
        if left_root == right_root:
            continue
        groups = uf.groups()
        merged = groups[left_root] + groups[right_root]
        if registry.common_servers(nickname_of[b] for b in merged):
            uf.union(edge.left_binding, edge.right_binding)

    groups = [bindings] if block.fixed_joins else sorted(
        uf.groups().values(), key=lambda g: min(bindings.index(b) for b in g)
    )

    if len(groups) == 1:
        fragment = _full_pushdown_fragment(
            statement, block, groups[0], nickname_of, registry
        )
        return DecomposedQuery(
            statement=statement,
            block=block,
            fragments=(fragment,),
            cross_edges=(),
        )

    binding_group = {b: i for i, group in enumerate(groups) for b in group}
    internal_edges: List[List[JoinEdge]] = [[] for _ in groups]
    cross_edges: List[JoinEdge] = []
    for edge in block.join_edges:
        left_g = binding_group[edge.left_binding]
        right_g = binding_group[edge.right_binding]
        if left_g == right_g:
            internal_edges[left_g].append(edge)
        else:
            cross_edges.append(edge)

    needed = _needed_columns(block, cross_edges)
    fragments = tuple(
        _partial_fragment(
            f"QF{i + 1}",
            group,
            internal_edges[i],
            needed,
            block,
            nickname_of,
            registry,
        )
        for i, group in enumerate(groups)
    )
    return DecomposedQuery(
        statement=statement,
        block=block,
        fragments=fragments,
        cross_edges=tuple(cross_edges),
    )


def _full_pushdown_fragment(
    statement: SelectStatement,
    block: QueryBlock,
    group: Sequence[str],
    nickname_of: Dict[str, str],
    registry: NicknameRegistry,
) -> QueryFragment:
    nicknames = tuple(sorted({nickname_of[b] for b in group}))
    servers = registry.common_servers(nicknames)
    if not servers:
        raise FederationError(
            f"no single server hosts all of {', '.join(nicknames)}; "
            "cross-server execution of this shape is not supported"
        )
    sql = statement.sql()
    # The fragment is the whole query: a server whose catalog content
    # equals the registry's takes this parse and bind as its own.
    offer_bound(sql, statement, registry.global_catalog.content(), block)
    return QueryFragment(
        fragment_id="QF1",
        sql=sql,
        bindings=tuple(group),
        nicknames=nicknames,
        candidate_servers=tuple(sorted(servers)),
        output_schema=block.output_schema,
        full_pushdown=True,
    )


def _needed_columns(
    block: QueryBlock, cross_edges: Sequence[JoinEdge]
) -> Dict[str, List[str]]:
    """Per-binding ordered list of bare columns the II side consumes."""
    needed: Dict[str, List[str]] = {b: [] for b in block.relations}

    def note(qualified: str) -> None:
        binding, _, bare = qualified.rpartition(".")
        if binding in needed and bare not in needed[binding]:
            needed[binding].append(bare)

    sources: List[Expression] = []
    sources.extend(item.expr for item in block.items)
    if block.residual is not None:
        sources.append(block.residual)
    sources.extend(block.group_by)
    if block.having is not None:
        sources.append(block.having)
    sources.extend(o.expr for o in block.order_by)
    for source in sources:
        for name in source.columns():  # qualified by bind
            note(name)
    for edge in cross_edges:
        note(edge.left_column)
        note(edge.right_column)
    return needed


def _partial_fragment(
    fragment_id: str,
    group: Sequence[str],
    edges: Sequence[JoinEdge],
    needed: Dict[str, List[str]],
    block: QueryBlock,
    nickname_of: Dict[str, str],
    registry: NicknameRegistry,
) -> QueryFragment:
    nicknames = tuple(sorted({nickname_of[b] for b in group}))
    servers = registry.common_servers(nicknames)
    if not servers:
        raise FederationError(
            f"fragment {fragment_id} groups {', '.join(nicknames)} "
            "but no server hosts them all"
        )

    select_parts: List[str] = []
    columns: List[Column] = []
    for binding in group:
        # Types by bare name from the catalog's own schema: no renamed
        # copy, no formatted lookup key.
        schema = block.relations[binding].table.schema
        bare_columns = needed.get(binding) or [schema.columns[0].name]
        for bare in bare_columns:
            select_parts.append(f"{binding}.{bare} AS {binding}__{bare}")
            columns.append(Column(bare, schema.column(bare).ctype, binding))

    from_parts: List[str] = []
    for binding in group:
        relation = block.relations[binding]
        if relation.table.name == binding:
            from_parts.append(relation.table.name)
        else:
            from_parts.append(f"{relation.table.name} AS {binding}")

    where_parts: List[str] = []
    for edge in edges:
        where_parts.append(f"{edge.left_column} = {edge.right_column}")
    for binding in group:
        predicate = block.relations[binding].predicate
        if predicate is not None:
            where_parts.append(predicate.sql())

    sql = f"SELECT {', '.join(select_parts)} FROM {', '.join(from_parts)}"
    if where_parts:
        sql += " WHERE " + " AND ".join(where_parts)

    return QueryFragment(
        fragment_id=fragment_id,
        sql=sql,
        bindings=tuple(group),
        nicknames=nicknames,
        candidate_servers=tuple(sorted(servers)),
        output_schema=Schema(tuple(columns)),
        full_pushdown=False,
    )
