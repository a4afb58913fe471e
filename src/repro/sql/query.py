"""The query model: Q = (T_Q, j_Q, f_Q).

Following Section 3.2 of the paper, a query is the set of tables it
touches, the equi-join predicates connecting them, and a per-table
conjunction of filter predicates.  All queries are COUNT(*) join
queries (the paper omits other physical operations, focusing on
scan/join planning).
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..storage.schema import JoinRelation, connected_components
from .predicates import Conjunction, Predicate

__all__ = ["Query"]


@dataclass
class Query:
    """A COUNT(*) select-project-join query.

    Attributes
    ----------
    tables:
        Names of the touched tables ``T_Q`` (order is canonical: the
        order in which the workload generator emitted them).
    joins:
        Equi-join predicates ``j_Q`` as :class:`JoinRelation`.
    filters:
        Mapping table name -> :class:`Conjunction` of filter predicates
        ``f_Q`` (tables may be absent = unfiltered).
    """

    tables: list[str]
    joins: list[JoinRelation] = field(default_factory=list)
    filters: dict[str, Conjunction] = field(default_factory=dict)

    def __post_init__(self):
        touched = set(self.tables)
        for join in self.joins:
            if join.left not in touched or join.right not in touched:
                raise ValueError(f"join {join} references a table outside {sorted(touched)}")
        for table, conj in self.filters.items():
            if table not in touched:
                raise ValueError(f"filter on {table!r} but query touches {sorted(touched)}")
            if conj.table != table:
                raise ValueError(f"filter conjunction table mismatch: {conj.table!r} != {table!r}")

    def __getstate__(self) -> dict:
        # A copy or unpickled query signs itself afresh: the signature
        # ``repro.core.query_signature`` keeps on a query is not carried.
        state = self.__dict__.copy()
        state.pop("_signature", None)
        return state

    # ------------------------------------------------------------------
    @property
    def num_tables(self) -> int:
        return len(self.tables)

    def filter_for(self, table: str) -> Conjunction:
        """The filter conjunction on ``table`` (empty if unfiltered: one
        shared, frozen empty conjunction per table name)."""
        conjunction = self.filters.get(table)
        return _unfiltered(table) if conjunction is None else conjunction

    def joins_between(self, group_a: set[str], group_b: set[str]) -> list[JoinRelation]:
        """All join predicates with one side in each group."""
        out = []
        for join in self.joins:
            if join.left in group_a and join.right in group_b:
                out.append(join)
            elif join.left in group_b and join.right in group_a:
                out.append(join.reversed())
        return out

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency among ``self.tables`` from the join predicates.

        This is the per-query matrix used by the legality beam search
        (Section 4.3): ``adj[i, j]`` is True iff a join predicate links
        ``tables[i]`` and ``tables[j]``.
        """
        index = {name: i for i, name in enumerate(self.tables)}
        adj = np.zeros((self.num_tables, self.num_tables), dtype=bool)
        for join in self.joins:
            i, j = index[join.left], index[join.right]
            adj[i, j] = adj[j, i] = True
        return adj

    def is_connected(self, tables: Iterable[str] | None = None) -> bool:
        """True if the join predicates connect ``tables`` (default: all touched)."""
        nodes = self.tables if tables is None else tables
        edges = ((join.left, join.right) for join in self.joins)
        return len(connected_components(nodes, edges)) == 1

    def to_sql(self) -> str:
        """Render as SQL text (the paper's Figure 2 input format)."""
        clauses = [str(j) for j in self.joins]
        clauses.extend(str(c) for c in self.filters.values() if len(c))
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return f"SELECT COUNT(*) FROM {', '.join(self.tables)}{where};"

    def __str__(self) -> str:
        return self.to_sql()


@functools.cache
def _unfiltered(table: str) -> Conjunction:
    return Conjunction(table=table, predicates=())
