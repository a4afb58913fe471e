"""Physical operators: scans and equi-joins over row-id intermediates.

An intermediate result is *factorized by provenance*: a mapping
``table -> row-id array`` where all arrays share one length (the result
cardinality).  Joins align these arrays; column values are fetched from
base tables on demand.  This keeps execution vectorized and memory-lean.

Every operator also reports a :class:`WorkReport` of tuples touched /
matched / emitted, which the simulated timing model converts into a
deterministic "execution time" (see :mod:`repro.engine.timing`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage.catalog import Database
from ..storage.schema import JoinRelation
from .plan import JoinOp, PlanNode, ScanOp

__all__ = ["Intermediate", "WorkReport", "execute_scan", "execute_join", "equi_join_positions"]


@dataclass
class Intermediate:
    """A join intermediate: aligned row-id arrays keyed by base table."""

    rows: dict[str, np.ndarray]

    @property
    def cardinality(self) -> int:
        if not self.rows:
            return 0
        return len(next(iter(self.rows.values())))

    @property
    def tables(self) -> frozenset:
        return frozenset(self.rows)

    def column_values(self, db: Database, table: str, column: str) -> np.ndarray:
        """Fetch the values of ``table.column`` for the surviving rows."""
        base = db.table(table).column(column)
        return base.values[self.rows[table]]

    def take(self, positions: np.ndarray) -> "Intermediate":
        return Intermediate({t: ids[positions] for t, ids in self.rows.items()})


@dataclass
class WorkReport:
    """Tuple-level work counters for one operator invocation."""

    tuples_scanned: int = 0
    tuples_built: int = 0
    tuples_probed: int = 0
    pairs_examined: int = 0
    tuples_emitted: int = 0
    extra: dict = field(default_factory=dict)


def execute_scan(node: PlanNode, db: Database) -> tuple[Intermediate, WorkReport]:
    """Execute a scan leaf: apply the filter, emit surviving row ids."""
    table = db.table(node.table)
    report = WorkReport()
    if node.filter is not None and len(node.filter):
        mask = node.filter.evaluate(table)
        row_ids = np.flatnonzero(mask)
        if node.scan_op is ScanOp.INDEX:
            # An index scan touches only matching tuples (plus lookup work,
            # charged by the timing model); a seq scan reads everything.
            report.tuples_scanned = int(len(row_ids))
            report.extra["index_lookups"] = len(node.filter)
        else:
            report.tuples_scanned = table.num_rows
    else:
        row_ids = np.arange(table.num_rows, dtype=np.int64)
        report.tuples_scanned = table.num_rows
    report.tuples_emitted = int(len(row_ids))
    return Intermediate({node.table: row_ids.astype(np.int64)}), report


class JoinExpansionError(RuntimeError):
    """Raised before materializing a join whose output exceeds a cap."""


def equi_join_positions(
    left_keys: np.ndarray, right_keys: np.ndarray, max_pairs: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """All (i, j) with ``left_keys[i] == right_keys[j]`` — vectorized.

    Sort-merge style expansion using searchsorted; handles duplicate keys
    on both sides (full many-to-many semantics).  When ``max_pairs`` is
    set, the output size is computed *before* materialization and a
    :class:`JoinExpansionError` is raised if it would exceed the cap —
    this keeps runaway fan-out joins from exhausting memory.
    """
    left_keys = np.asarray(left_keys)
    right_keys = np.asarray(right_keys)
    if left_keys.size == 0 or right_keys.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    order = np.argsort(right_keys, kind="mergesort")
    sorted_right = right_keys[order]
    starts = np.searchsorted(sorted_right, left_keys, side="left")
    ends = np.searchsorted(sorted_right, left_keys, side="right")
    counts = ends - starts
    total = int(counts.sum())
    if max_pairs is not None and total > max_pairs:
        raise JoinExpansionError(f"join would emit {total} pairs (cap {max_pairs})")
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    left_pos = np.repeat(np.arange(left_keys.size, dtype=np.int64), counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    right_pos = order[np.repeat(starts, counts) + within]
    return left_pos, right_pos


def _join_keys(
    intermediate: Intermediate, db: Database, predicates: list[JoinRelation], side_tables: frozenset
) -> list[np.ndarray]:
    """One side's key columns, one per predicate (strings as ``str``)."""
    columns = []
    for pred in predicates:
        if pred.left in side_tables:
            values = intermediate.column_values(db, pred.left, pred.left_column)
        else:
            values = intermediate.column_values(db, pred.right, pred.right_column)
        columns.append(values.astype(str) if values.dtype == object else values)
    return columns


def _paired_keys(left_columns: list[np.ndarray], right_columns: list[np.ndarray]) -> tuple:
    """One sortable key per row of each side.

    A single predicate's key is its column.  Several predicates' key is
    one int64 code per row, equal on two rows iff every column is: each
    column's values ranked over both sides, the ranks combined in mixed
    radix (re-ranked first from the third column on, so codes stay
    below the rows squared).  Only equality and a stable sort reach
    ``equi_join_positions``, so the pairs and their order are those of
    comparing the columns themselves.
    """
    if len(left_columns) == 1:
        return left_columns[0], right_columns[0]
    codes = None
    for index, (left, right) in enumerate(zip(left_columns, right_columns)):
        uniques, ranks = np.unique(np.concatenate((left, right)), return_inverse=True)
        if codes is None:
            codes = ranks
        else:
            if index > 1:
                codes = np.unique(codes, return_inverse=True)[1]
            codes = codes * len(uniques) + ranks
    n_left = len(left_columns[0])
    return codes[:n_left], codes[n_left:]


def execute_join(
    node: PlanNode,
    left: Intermediate,
    right: Intermediate,
    db: Database,
    max_rows: int | None = None,
) -> tuple[Intermediate, WorkReport]:
    """Execute a join node over two intermediates.

    Both physical algorithms produce identical output; they differ in
    the work they report (and hence their simulated latency):

    - HASH: build the smaller side, probe the larger;
    - NESTED_LOOP: examine every pair.
    """
    report = WorkReport()
    left_keys, right_keys = _paired_keys(
        _join_keys(left, db, node.join_predicates, left.tables),
        _join_keys(right, db, node.join_predicates, right.tables),
    )

    lpos, rpos = equi_join_positions(left_keys, right_keys, max_pairs=max_rows)

    n_left, n_right = left.cardinality, right.cardinality
    op = node.join_op or JoinOp.HASH
    if op is JoinOp.HASH:
        report.tuples_built = min(n_left, n_right)
        report.tuples_probed = max(n_left, n_right)
    else:  # NESTED_LOOP
        report.pairs_examined = n_left * n_right
    report.tuples_emitted = int(len(lpos))

    rows: dict[str, np.ndarray] = {}
    for table, ids in left.rows.items():
        rows[table] = ids[lpos]
    for table, ids in right.rows.items():
        rows[table] = ids[rpos]
    return Intermediate(rows), report
