"""Join schemas: which tables join with which, over which key columns.

The paper's knowledge taxonomy places the *join schema* (fact/dimension
tables and their PK-FK relationships) in the database-specific bucket.
``JoinSchema`` models it as an undirected graph on table names, a plain
dict adjacency ``table -> {neighbour -> JoinRelation}`` with each edge
labelled by its join key columns.  :func:`connected_components` is the
one connectivity traversal: the schema, ``Query.is_connected`` (the
labeler) and the beam search's ``require_connected`` all answer "are
these tables join-connected?" through it.  Join enumeration, which
asks that of every table subset, answers it on bitmasks instead
(``repro.optimizer.JoinGraph``).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from dataclasses import dataclass

__all__ = ["JoinRelation", "JoinSchema", "connected_components"]


@dataclass(frozen=True)
class JoinRelation:
    """An equi-join relationship ``left.left_column = right.right_column``."""

    left: str
    left_column: str
    right: str
    right_column: str

    def reversed(self) -> "JoinRelation":
        return JoinRelation(self.right, self.right_column, self.left, self.left_column)

    def touches(self, table: str) -> bool:
        return table in (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left}.{self.left_column} = {self.right}.{self.right_column}"


def connected_components(
    nodes: Iterable[Hashable], edges: Iterable[tuple[Hashable, Hashable]]
) -> list[list]:
    """The connected components of the graph ``nodes`` induce over ``edges``.

    Edges with an endpoint outside ``nodes`` are ignored, so a caller
    asks about a subset by passing it with the full edge list.  The
    components come in the order of their first node in ``nodes``, and
    each starts with that node.
    """
    neighbours: dict = {node: [] for node in nodes}
    for a, b in edges:
        if a in neighbours and b in neighbours:
            neighbours[a].append(b)
            neighbours[b].append(a)
    seen = set()
    components: list[list] = []
    for root in neighbours:
        if root in seen:
            continue
        seen.add(root)
        component = [root]
        stack = [root]
        while stack:
            for other in neighbours[stack.pop()]:
                if other not in seen:
                    seen.add(other)
                    component.append(other)
                    stack.append(other)
        components.append(component)
    return components


class JoinSchema:
    """The join graph of a database."""

    def __init__(self, relations: list[JoinRelation] | None = None):
        self._adjacency: dict[str, dict[str, JoinRelation]] = {}
        self.relations: list[JoinRelation] = []
        for relation in relations or []:
            self.add(relation)

    def add(self, relation: JoinRelation) -> None:
        """Add a join edge; a repeated table pair keeps the last relation."""
        self.relations.append(relation)
        # Reversed first, so a self-join keeps its own orientation.
        self._adjacency.setdefault(relation.right, {})[relation.left] = relation.reversed()
        self._adjacency.setdefault(relation.left, {})[relation.right] = relation

    def add_table(self, name: str) -> None:
        """Register a table even if it participates in no joins."""
        self._adjacency.setdefault(name, {})

    @property
    def tables(self) -> list[str]:
        return sorted(self._adjacency)

    def neighbors(self, table: str) -> list[str]:
        return sorted(self._adjacency.get(table, ()))

    def relation_between(self, a: str, b: str) -> JoinRelation | None:
        """The join relation between tables ``a`` and ``b``, oriented from ``a``."""
        return self._adjacency.get(a, {}).get(b)

    def is_connected(self, tables: list[str]) -> bool:
        """True if ``tables`` induce a connected subgraph of the join graph."""
        if not all(t in self._adjacency for t in tables):
            return False
        edges = ((r.left, r.right) for r in self.relations)
        return len(connected_components(tables, edges)) == 1

    def __repr__(self) -> str:
        return f"JoinSchema(tables={len(self._adjacency)}, relations={len(self.relations)})"
