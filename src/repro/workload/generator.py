"""JOB-like workload generation.

The paper trains on 150K queries "similar to the JOB queries": multi-way
PK-FK joins over the IMDB schema with correlated range, equality and
LIKE predicates.  ``WorkloadGenerator`` reproduces that query shape over
any :class:`Database`:

- the touched tables are a random connected subgraph of the join graph
  (random-walk sampling), so every query is executable;
- join predicates are exactly the schema edges inside the subgraph;
- filters are drawn per table: numeric comparisons/BETWEEN anchored at
  actual data values (so selectivities are realistic), string equality,
  IN lists and LIKE patterns built from substrings of actual values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sql.predicates import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
)
from ..sql.query import Query
from ..storage.catalog import Database

__all__ = ["WorkloadConfig", "WorkloadGenerator", "generate_single_table_queries"]


@dataclass
class WorkloadConfig:
    """Knobs for workload generation."""

    min_tables: int = 2
    max_tables: int = 6
    max_filters_per_table: int = 2
    filter_probability: float = 0.7     # chance a table gets any filter
    like_probability: float = 0.3       # among string predicates
    in_probability: float = 0.2
    seed: int = 0


class WorkloadGenerator:
    """Generates random executable SPJ queries over a database.

    Every random pick is an index drawn from ``rng`` —
    ``seq[rng.integers(0, len(seq))]`` for one item,
    ``rng.choice(len(seq), size=k, replace=False)`` for ``k`` distinct
    ones — which consumes the stream exactly as ``rng.choice(seq)``
    would, so a seed names the same queries as when the sequences were
    handed to ``rng.choice`` whole.  The candidate tables, each table's
    neighbours and filterable columns, and each numeric column's values
    are listed once per generator.
    """

    def __init__(self, db: Database, config: WorkloadConfig | None = None):
        self.db = db
        self.config = config or WorkloadConfig()
        self.rng = np.random.default_rng(self.config.seed)
        self._key_columns = self._collect_key_columns()
        schema = db.join_schema
        self._neighbors = {table: schema.neighbors(table) for table in schema.tables}
        self._candidates = [table for table, around in self._neighbors.items() if around]
        self._eligible: dict[str, list[str]] = {}

    def _collect_key_columns(self) -> dict[str, set]:
        """PK/FK columns per table (excluded from filter predicates)."""
        keys: dict[str, set] = {name: set() for name in self.db.table_names}
        for name in self.db.table_names:
            pk = self.db.table(name).primary_key
            if pk:
                keys[name].add(pk)
        for relation in self.db.join_schema.relations:
            keys[relation.left].add(relation.left_column)
            keys[relation.right].add(relation.right_column)
        return keys

    def _pick(self, seq):
        """One uniform item of ``seq`` (the draw ``rng.choice(seq)`` makes)."""
        return seq[self.rng.integers(0, len(seq))]

    # ------------------------------------------------------------------
    def sample_tables(self, num_tables: int) -> list[str]:
        """Random connected subgraph of the join graph via a random walk."""
        candidates = self._candidates
        if not candidates:
            raise ValueError("join schema has no joinable tables")
        start = str(self._pick(candidates))
        chosen = [start]
        frontier = set(self._neighbors[start])
        while len(chosen) < num_tables and frontier:
            nxt = str(self._pick(sorted(frontier)))
            chosen.append(nxt)
            frontier.update(self._neighbors[nxt])
            frontier.difference_update(chosen)
        return chosen

    def _numeric_predicate(self, table: str, column: str):
        values = self.db.table(table).column(column).numeric_values()
        if values.size == 0:
            return None
        anchor = float(self._pick(values))
        roll = self.rng.random()
        if roll < 0.3:
            return Comparison(table, column, CompareOp.LE, anchor)
        if roll < 0.6:
            return Comparison(table, column, CompareOp.GE, anchor)
        if roll < 0.8:
            other = float(self._pick(values))
            low, high = sorted((anchor, other))
            return BetweenPredicate(table, column, low, high)
        return Comparison(table, column, CompareOp.EQ, anchor)

    def _string_predicate(self, table: str, column: str):
        col = self.db.table(table).column(column)
        if len(col) == 0:
            return None
        value = str(self._pick(col.values))
        roll = self.rng.random()
        if roll < self.config.like_probability and len(value) >= 2:
            # Substring LIKE: '%mid%', prefix 'pre%' or suffix '%suf'.
            kind = self.rng.integers(0, 3)
            span = max(2, len(value) // 2)
            if kind == 0:
                start = self.rng.integers(0, max(len(value) - span, 0) + 1)
                return LikePredicate(table, column, f"%{value[start:start + span]}%")
            if kind == 1:
                return LikePredicate(table, column, f"{value[:span]}%")
            return LikePredicate(table, column, f"%{value[-span:]}")
        if roll < self.config.like_probability + self.config.in_probability:
            pool = col.dictionary if col.dictionary is not None else np.unique(col.values.astype(str))
            k = int(self.rng.integers(2, min(5, len(pool)) + 1))
            picks = tuple(str(pool[i]) for i in self.rng.choice(len(pool), size=k, replace=False))
            return InPredicate(table, column, picks)
        return Comparison(table, column, CompareOp.EQ, value)

    def sample_filters(self, table: str) -> Conjunction:
        """Sample a conjunction of filters for one table (may be empty)."""
        predicates = []
        if self.rng.random() < self.config.filter_probability:
            table_obj = self.db.table(table)
            eligible = self._eligible.get(table)
            if eligible is None:
                keys = self._key_columns[table]
                eligible = self._eligible[table] = [c for c in table_obj.column_order if c not in keys]
            if eligible:
                count = int(self.rng.integers(1, self.config.max_filters_per_table + 1))
                count = min(count, len(eligible))
                for index in self.rng.choice(len(eligible), size=count, replace=False):
                    column = eligible[index]
                    if table_obj.column(column).is_numeric:
                        pred = self._numeric_predicate(table, column)
                    else:
                        pred = self._string_predicate(table, column)
                    if pred is not None:
                        predicates.append(pred)
        return Conjunction(table=table, predicates=tuple(predicates))

    def generate_query(self, num_tables: int | None = None) -> Query:
        """Generate one executable query."""
        if num_tables is None:
            num_tables = int(self.rng.integers(self.config.min_tables, self.config.max_tables + 1))
        tables = self.sample_tables(num_tables)
        joins = []
        for i, a in enumerate(tables):
            for b in tables[i + 1:]:
                relation = self.db.join_schema.relation_between(a, b)
                if relation is not None:
                    joins.append(relation)
        filters = {}
        for table in tables:
            conj = self.sample_filters(table)
            if len(conj):
                filters[table] = conj
        return Query(tables=tables, joins=joins, filters=filters)

    def generate(self, num_queries: int) -> list[Query]:
        """Generate a workload of ``num_queries`` queries."""
        return [self.generate_query() for _ in range(num_queries)]


def generate_single_table_queries(
    db: Database, table: str, num_queries: int, seed: int = 0
) -> list[Query]:
    """Single-table filter queries for training the per-table encoders.

    Algorithm 1 line 4 trains each ``Enc_j`` "with a CardEst task on a
    single table": these are the queries it trains on.
    """
    config = WorkloadConfig(min_tables=1, max_tables=1, filter_probability=1.0, seed=seed)
    generator = WorkloadGenerator(db, config)
    queries = []
    for _ in range(num_queries):
        conj = generator.sample_filters(table)
        filters = {table: conj} if len(conj) else {}
        queries.append(Query(tables=[table], joins=[], filters=filters))
    return queries
