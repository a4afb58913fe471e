"""Table statistics: equi-depth histograms, most-common values, distincts.

These statistics power the classical "PostgreSQL" baseline estimator in
:mod:`repro.optimizer.selectivity` (PostgreSQL's ANALYZE collects the
same trio: ``histogram_bounds``, ``most_common_vals``, ``n_distinct``).
They are also the cheap per-table summaries that the paper's workflow
allows users to compute locally ("similar to an ANALYZE operation").
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .column import Column, ColumnType
from .table import Table

__all__ = ["EquiDepthHistogram", "ColumnStatistics", "TableStatistics", "analyze_table"]


@dataclass
class EquiDepthHistogram:
    """Equi-depth (equal-frequency) histogram over a numeric column.

    ``bounds`` is kept as a list of Python floats: a lookup then runs on
    Python floats with the IEEE operations numpy scalars would do, and
    ``bisect_right`` finds the bucket ``searchsorted(side="right")``
    would.  The planner, (F)'s predicate features, the labeler's DP and
    the gate all estimate through these lookups.
    """

    bounds: list[float]  # length num_buckets + 1, non-decreasing
    total_count: int

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.float64).tolist()

    @classmethod
    def build(cls, values: np.ndarray, num_buckets: int = 32) -> "EquiDepthHistogram":
        values = np.sort(np.asarray(values, dtype=np.float64))
        if values.size == 0:
            return cls(bounds=[0.0, 0.0], total_count=0)
        quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
        bounds = np.quantile(values, quantiles)
        return cls(bounds=bounds, total_count=int(values.size))

    @property
    def num_buckets(self) -> int:
        return len(self.bounds) - 1

    @property
    def min_value(self) -> float:
        return self.bounds[0]

    @property
    def max_value(self) -> float:
        return self.bounds[-1]

    def selectivity_le(self, value: float) -> float:
        """Estimated fraction of rows with column <= value."""
        if self.total_count == 0:
            return 0.0
        # numpy compares and subtracts a number with a float64 bound after
        # converting it to float64; so does this.
        value = float(value)
        bounds = self.bounds
        if value < bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        # Find the bucket containing `value` and interpolate within it.
        num_buckets = len(bounds) - 1
        idx = min(max(bisect_right(bounds, value) - 1, 0), num_buckets - 1)
        lo, hi = bounds[idx], bounds[idx + 1]
        within = 0.5 if hi <= lo else (value - lo) / (hi - lo)
        return (idx + within) / num_buckets

    def selectivity_range(self, low: float | None, high: float | None) -> float:
        """Estimated fraction of rows with low <= column <= high."""
        lo_frac = 0.0 if low is None else self.selectivity_le(low)
        hi_frac = 1.0 if high is None else self.selectivity_le(high)
        return min(max(hi_frac - lo_frac, 0.0), 1.0)


@dataclass
class ColumnStatistics:
    """Statistics for a single column.

    Read-only once built (``Database.analyze`` builds fresh ones).  The
    most-common values are indexed at construction, in a dict where the
    first of equal values wins, as the first match of a scan would; a
    numeric column's MCVs are float64, as ANALYZE collects them, and
    are looked up as floats.  The uniform residual of
    :meth:`equality_selectivity` is computed once.
    """

    name: str
    ctype: ColumnType
    num_rows: int
    n_distinct: int
    histogram: EquiDepthHistogram | None = None
    mcv_values: list = field(default_factory=list)
    mcv_fractions: np.ndarray = field(default_factory=lambda: np.array([]))
    null_fraction: float = 0.0

    def __post_init__(self):
        self._numeric = self.ctype is not ColumnType.STRING
        self._mcv: dict = {}
        for value, frac in zip(self.mcv_values, self.mcv_fractions):
            self._mcv.setdefault(float(value) if self._numeric else value, float(frac))
        mcv_mass = float(self.mcv_fractions.sum()) if self.mcv_fractions.size else 0.0
        residual_distinct = max(self.n_distinct - len(self.mcv_values), 1)
        self._residual = max((1.0 - mcv_mass) / residual_distinct, 0.0)

    def mcv_selectivity(self, value) -> float | None:
        """Fraction for ``value`` if it is a most-common value, else None."""
        if self._numeric and isinstance(value, (int, np.integer)):
            # numpy compares an integer with a float64 MCV as a float64,
            # but an int beyond 2**53 hashes as itself, not as that float.
            value = float(value)
        return self._mcv.get(value)

    def equality_selectivity(self, value) -> float:
        """PostgreSQL-style eq selectivity: MCV hit or uniform residual."""
        hit = self.mcv_selectivity(value)
        return self._residual if hit is None else hit


def analyze_column(column: Column, num_buckets: int = 32, num_mcv: int = 10) -> ColumnStatistics:
    """Collect statistics for one column (ANALYZE equivalent)."""
    n = len(column)
    if column.is_numeric:
        values = column.numeric_values()
        hist = EquiDepthHistogram.build(values, num_buckets=num_buckets)
        uniques, counts = np.unique(values, return_counts=True)
    else:
        hist = None
        uniques, counts = np.unique(column.values.astype(str), return_counts=True)
    order = np.argsort(counts)[::-1][:num_mcv]
    mcv_values = [uniques[i] for i in order]
    mcv_fractions = counts[order] / max(n, 1)
    return ColumnStatistics(
        name=column.name,
        ctype=column.ctype,
        num_rows=n,
        n_distinct=len(uniques),
        histogram=hist,
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
    )


@dataclass
class TableStatistics:
    """All column statistics of a table, plus its row count."""

    table_name: str
    num_rows: int
    columns: dict[str, ColumnStatistics]

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no statistics for column {name!r} of {self.table_name!r}") from None


def analyze_table(table: Table, num_buckets: int = 32, num_mcv: int = 10) -> TableStatistics:
    """Collect statistics for every column of ``table``."""
    stats = {
        name: analyze_column(table.column(name), num_buckets=num_buckets, num_mcv=num_mcv)
        for name in table.column_order
    }
    return TableStatistics(table_name=table.name, num_rows=table.num_rows, columns=stats)
