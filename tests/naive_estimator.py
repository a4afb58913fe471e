"""Test-side reference for the per-query cardinality view.

``NaiveHistogramEstimator`` is the histogram estimator as it was before
views: ``estimate`` walks the tables and joins of the subset and asks
for every selectivity again, and the "view" it hands ``plan_with_order``
and the enumerators recomputes every subset on every request.  Not
production code; it exists so the tests have an independent arithmetic
to require bit-equality (``==``) against.

The one difference from the pre-view loop: tables are multiplied in
``query.tables`` order, not in the iteration order of the ``subset``
frozenset.  That order depends on how the frozenset was built (and on
``PYTHONHASHSEED``), so the old loop gave equal subsets reached through
different join orders estimates that differed in the last bit — nothing
a memo keyed by the subset's value could ever be compared against.
"""

from repro.optimizer import HistogramEstimator, QueryCardinalities


class NaiveHistogramEstimator(HistogramEstimator):
    def estimate(self, query, subset):
        rows = 1.0
        for table in query.tables:
            if table in subset:
                rows *= max(self.scan_rows(query, table), 0.0)
        for join in query.joins:
            if join.left in subset and join.right in subset:
                rows *= self.join_selectivity(join)
        return max(rows, 0.0)

    def for_query(self, query):
        return _Unmemoised(self, query)


class _Unmemoised(QueryCardinalities):
    def rows(self, subset):
        rows = max(float(self.estimator.estimate(self.query, subset)), 0.0)
        self.cardinalities[subset] = rows
        return rows
