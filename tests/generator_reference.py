"""Test-side reference for workload generation: the sampling code as it
was before the generator drew by index.

``ReferenceGenerator`` draws every table, column, anchor value and IN
list through ``rng.choice`` over the sequence itself, re-lists the
candidate tables, each table's eligible columns and each column's
``numeric_values()`` on every draw.  ``reference_single_table_queries``
is ``generate_single_table_queries`` over it.  Not production code: the
tests require ``WorkloadGenerator`` to emit the same query stream
(``query_signature`` and ``to_sql()``) from the same seed and config.
"""

import numpy as np

from repro.sql.predicates import (
    BetweenPredicate,
    Comparison,
    CompareOp,
    Conjunction,
    InPredicate,
    LikePredicate,
)
from repro.sql.query import Query
from repro.workload import WorkloadConfig


class ReferenceGenerator:
    def __init__(self, db, config=None):
        self.db = db
        self.config = config or WorkloadConfig()
        self.rng = np.random.default_rng(self.config.seed)
        keys = {name: set() for name in db.table_names}
        for name in db.table_names:
            pk = db.table(name).primary_key
            if pk:
                keys[name].add(pk)
        for relation in db.join_schema.relations:
            keys[relation.left].add(relation.left_column)
            keys[relation.right].add(relation.right_column)
        self._key_columns = keys

    def sample_tables(self, num_tables):
        schema = self.db.join_schema
        candidates = [t for t in schema.tables if schema.neighbors(t)]
        if not candidates:
            raise ValueError("join schema has no joinable tables")
        start = str(self.rng.choice(candidates))
        chosen = [start]
        frontier = set(schema.neighbors(start))
        while len(chosen) < num_tables and frontier:
            nxt = str(self.rng.choice(sorted(frontier)))
            chosen.append(nxt)
            frontier |= set(schema.neighbors(nxt))
            frontier -= set(chosen)
        return chosen

    def _numeric_predicate(self, table, column):
        values = self.db.table(table).column(column).numeric_values()
        if values.size == 0:
            return None
        anchor = float(self.rng.choice(values))
        roll = self.rng.random()
        if roll < 0.3:
            return Comparison(table, column, CompareOp.LE, anchor)
        if roll < 0.6:
            return Comparison(table, column, CompareOp.GE, anchor)
        if roll < 0.8:
            other = float(self.rng.choice(values))
            low, high = sorted((anchor, other))
            return BetweenPredicate(table, column, low, high)
        return Comparison(table, column, CompareOp.EQ, anchor)

    def _string_predicate(self, table, column):
        col = self.db.table(table).column(column)
        if len(col) == 0:
            return None
        value = str(self.rng.choice(col.values))
        roll = self.rng.random()
        if roll < self.config.like_probability and len(value) >= 2:
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
            picks = tuple(str(v) for v in self.rng.choice(pool, size=k, replace=False))
            return InPredicate(table, column, picks)
        return Comparison(table, column, CompareOp.EQ, value)

    def sample_filters(self, table):
        predicates = []
        if self.rng.random() < self.config.filter_probability:
            table_obj = self.db.table(table)
            eligible = [c for c in table_obj.column_order if c not in self._key_columns[table]]
            if eligible:
                count = int(self.rng.integers(1, self.config.max_filters_per_table + 1))
                count = min(count, len(eligible))
                columns = self.rng.choice(eligible, size=count, replace=False)
                for column in columns:
                    if table_obj.column(column).is_numeric:
                        pred = self._numeric_predicate(table, column)
                    else:
                        pred = self._string_predicate(table, column)
                    if pred is not None:
                        predicates.append(pred)
        return Conjunction(table=table, predicates=tuple(predicates))

    def generate_query(self, num_tables=None):
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


def reference_single_table_queries(db, table, num_queries, seed=0):
    config = WorkloadConfig(min_tables=1, max_tables=1, filter_probability=1.0, seed=seed)
    generator = ReferenceGenerator(db, config)
    queries = []
    for _ in range(num_queries):
        conj = generator.sample_filters(table)
        filters = {table: conj} if len(conj) else {}
        queries.append(Query(tables=[table], joins=[], filters=filters))
    return queries
