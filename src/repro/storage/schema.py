"""Join schemas: which tables join with which, over which key columns.

The paper's knowledge taxonomy places the *join schema* (fact/dimension
tables and their PK-FK relationships) in the database-specific bucket.
``JoinSchema`` models it as an undirected multigraph on table names,
with edges labelled by the join key columns; ``networkx`` supplies
connectivity queries used by the workload generator and the optimizer's
join enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

__all__ = ["JoinRelation", "JoinSchema"]


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


class JoinSchema:
    """The join graph of a database."""

    def __init__(self, relations: list[JoinRelation] | None = None):
        self._graph = nx.Graph()
        self.relations: list[JoinRelation] = []
        for relation in relations or []:
            self.add(relation)

    def add(self, relation: JoinRelation) -> None:
        self.relations.append(relation)
        self._graph.add_edge(relation.left, relation.right, relation=relation)

    def add_table(self, name: str) -> None:
        """Register a table even if it participates in no joins."""
        self._graph.add_node(name)

    @property
    def tables(self) -> list[str]:
        return sorted(self._graph.nodes)

    def neighbors(self, table: str) -> list[str]:
        if table not in self._graph:
            return []
        return sorted(self._graph.neighbors(table))

    def relation_between(self, a: str, b: str) -> JoinRelation | None:
        """The join relation between tables ``a`` and ``b``, if any."""
        if self._graph.has_edge(a, b):
            relation = self._graph.edges[a, b]["relation"]
            return relation if relation.left == a else relation.reversed()
        return None

    def are_joinable(self, a: str, b: str) -> bool:
        return self._graph.has_edge(a, b)

    def is_connected(self, tables: list[str]) -> bool:
        """True if ``tables`` induce a connected subgraph of the join graph."""
        if not tables:
            return False
        missing = [t for t in tables if t not in self._graph]
        if missing:
            return False
        sub = self._graph.subgraph(tables)
        return nx.is_connected(sub)

    def adjacency_matrix(self, tables: list[str]):
        """Boolean adjacency among ``tables`` (order preserved).

        This is the matrix the paper's legality-aware beam search
        (Section 4.3) builds from the query's join conditions.
        """
        import numpy as np

        n = len(tables)
        adj = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(tables):
            for j, b in enumerate(tables):
                if i != j and self._graph.has_edge(a, b):
                    adj[i, j] = True
        return adj

    def __repr__(self) -> str:
        return f"JoinSchema(tables={len(self._graph)}, relations={len(self.relations)})"
