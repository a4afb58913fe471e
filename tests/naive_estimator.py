"""Test-side references for the per-query cardinality view and the
column statistics it reads.

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

The ``naive_*`` functions are the column statistics' lookups as numpy
scalar arithmetic: ``searchsorted`` over the bounds as a float64 array,
a scan of the MCV list for its first equal value, and the uniform
residual recomputed on every call.  ``EquiDepthHistogram`` and
``ColumnStatistics`` answer in Python floats from an index built once;
``tests/test_storage.py`` requires ``float.hex`` equality against these.
"""

import numpy as np

from repro.optimizer import HistogramEstimator, QueryCardinalities


def naive_selectivity_le(histogram, value):
    bounds = np.asarray(histogram.bounds, dtype=np.float64)
    if histogram.total_count == 0:
        return 0.0
    if value < bounds[0]:
        return 0.0
    if value >= bounds[-1]:
        return 1.0
    num_buckets = len(bounds) - 1
    idx = int(np.searchsorted(bounds, value, side="right")) - 1
    idx = min(max(idx, 0), num_buckets - 1)
    lo, hi = bounds[idx], bounds[idx + 1]
    within = 0.5 if hi <= lo else (value - lo) / (hi - lo)
    return (idx + within) / num_buckets


def naive_selectivity_range(histogram, low, high):
    lo_frac = 0.0 if low is None else naive_selectivity_le(histogram, low)
    hi_frac = 1.0 if high is None else naive_selectivity_le(histogram, high)
    return float(np.clip(hi_frac - lo_frac, 0.0, 1.0))


def naive_mcv_selectivity(stats, value):
    for v, frac in zip(stats.mcv_values, stats.mcv_fractions):
        if v == value:
            return float(frac)
    return None


def naive_equality_selectivity(stats, value):
    hit = naive_mcv_selectivity(stats, value)
    if hit is not None:
        return hit
    mcv_mass = float(stats.mcv_fractions.sum()) if stats.mcv_fractions.size else 0.0
    residual_distinct = max(stats.n_distinct - len(stats.mcv_values), 1)
    return max((1.0 - mcv_mass) / residual_distinct, 0.0)


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
