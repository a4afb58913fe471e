"""PostgreSQL-style analytical cost model over *estimated* cardinalities.

Where :mod:`repro.engine.timing` charges true observed work after
execution, this model predicts cost before execution from cardinality
estimates — it is what the classical optimizer minimises during join
enumeration, and its outputs are the "true cost" labels for the CostEst
task (computed with true cardinalities plugged in).

The structure mirrors PostgreSQL's costing: per-tuple CPU terms, a
cheaper sequential page term, random-access penalties for index scans,
n·log n sorts for merge joins and build+probe terms for hash joins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import JoinOp, PlanNode, ScanOp

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]

# ``best_join_op``'s candidates in tie order (iterating the enum itself
# costs a generator per call).
_JOIN_OPS = tuple(JoinOp)


@dataclass(frozen=True)
class CostModel:
    """Cost weights (arbitrary units, PostgreSQL-flavoured ratios)."""

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    rows_per_page: float = 100.0
    hash_build_cost: float = 0.015
    sort_cost: float = 0.012

    # ------------------------------------------------------------------
    def scan_cost(self, base_rows: float, output_rows: float, scan_op: ScanOp) -> float:
        base_rows = max(base_rows, 1.0)
        output_rows = max(output_rows, 0.0)
        if scan_op is ScanOp.INDEX:
            lookup = self.random_page_cost * max(np.log2(base_rows), 1.0)
            return lookup + output_rows * (self.cpu_index_tuple_cost + self.random_page_cost / self.rows_per_page)
        pages = base_rows / self.rows_per_page
        return pages * self.seq_page_cost + base_rows * self.cpu_tuple_cost

    def join_cost(self, left_rows: float, right_rows: float, output_rows: float, join_op: JoinOp) -> float:
        left_rows = max(left_rows, 1.0)
        right_rows = max(right_rows, 1.0)
        output_rows = max(output_rows, 0.0)
        emit = output_rows * self.cpu_tuple_cost
        if join_op is JoinOp.HASH:
            build, probe = min(left_rows, right_rows), max(left_rows, right_rows)
            return build * self.hash_build_cost + probe * self.cpu_operator_cost + emit
        if join_op is JoinOp.MERGE:
            total = left_rows + right_rows
            log_factor = max(np.log2(max(total, 2.0)), 1.0)
            return total * self.sort_cost * log_factor + total * self.cpu_operator_cost + emit
        # Nested loop: every pair is examined.
        return left_rows * right_rows * self.cpu_operator_cost + emit

    def best_join_op(self, left_rows: float, right_rows: float, output_rows: float) -> tuple[JoinOp, float]:
        """Cheapest physical join operator for the given sizes.

        Priced through ``self.join_cost``, so a subclass that overrides
        the formula (``TimingAlignedCostModel``) chooses by its own.
        """
        best_op, best_cost = None, float("inf")
        for op in _JOIN_OPS:
            cost = self.join_cost(left_rows, right_rows, output_rows, op)
            if cost < best_cost:
                best_op, best_cost = op, cost
        return best_op, best_cost

    def best_scan_op(self, base_rows: float, output_rows: float, has_filter: bool) -> tuple[ScanOp, float]:
        """Cheapest scan operator (index only pays off for selective filters)."""
        seq = self.scan_cost(base_rows, output_rows, ScanOp.SEQ)
        if not has_filter:
            return ScanOp.SEQ, seq
        index = self.scan_cost(base_rows, output_rows, ScanOp.INDEX)
        return (ScanOp.INDEX, index) if index < seq else (ScanOp.SEQ, seq)

    # ------------------------------------------------------------------
    def node_cost(self, node: PlanNode, cardinalities: dict[frozenset, float], base_rows: dict[str, float]) -> float:
        """Cost of one plan node, its operator chosen here if unset.

        An unset scan / join operator becomes the cheapest one for the
        node's cardinalities and is written into the node, as is the
        cost (``estimated_cost``).  Children are read, never changed.
        """
        out_rows = cardinalities[node.tables]
        if node.is_scan:
            has_filter = node.filter is not None and len(node.filter) > 0
            op = node.scan_op
            if op is None:
                op, cost = self.best_scan_op(base_rows[node.table], out_rows, has_filter)
                node.scan_op = op
            else:
                cost = self.scan_cost(base_rows[node.table], out_rows, op)
        else:
            left_rows = cardinalities[node.left.tables]
            right_rows = cardinalities[node.right.tables]
            op = node.join_op
            if op is None:
                op, cost = self.best_join_op(left_rows, right_rows, out_rows)
                node.join_op = op
            else:
                cost = self.join_cost(left_rows, right_rows, out_rows, op)
        node.estimated_cost = cost
        return cost

    def plan_cost(self, plan: PlanNode, cardinalities: dict[frozenset, float], base_rows: dict[str, float]) -> float:
        """Total cost of a physical plan given per-subtree cardinalities.

        ``cardinalities`` maps each node's table set to its (estimated or
        true) output cardinality; ``base_rows`` maps table name to its
        unfiltered row count.  Every node goes through :meth:`node_cost`.
        """
        total = 0.0
        for node in plan.nodes_postorder():
            total += self.node_cost(node, cardinalities, base_rows)
        return total


DEFAULT_COST_MODEL = CostModel()


class TimingAlignedCostModel(CostModel):
    """A cost model whose operator costs equal the simulated timing.

    Used by the optimal-order oracle: the paper's "Optimal" row is the
    plan that truly minimises (measured) execution time, so the DP must
    optimise the same objective the evaluation measures.  The formulas
    follow :class:`repro.engine.timing.TimingModel` with one known
    difference: an index scan is charged one ``index_lookup_ms`` here,
    while the executor charges one per filter predicate
    (``execute_scan``'s ``index_lookups``), so a plan's DP cost can
    differ from its executed simulated time.
    """

    def __init__(self, timing=None):
        from .timing import DEFAULT_TIMING

        object.__setattr__(self, "timing", timing or DEFAULT_TIMING)

    def scan_cost(self, base_rows: float, output_rows: float, scan_op: ScanOp) -> float:
        t = self.timing
        base_rows = max(base_rows, 0.0)
        output_rows = max(output_rows, 0.0)
        if scan_op is ScanOp.INDEX:
            return t.index_lookup_ms + output_rows * t.index_tuple_ms + output_rows * t.emit_ms
        return base_rows * t.scan_ms + output_rows * t.emit_ms

    def join_cost(self, left_rows: float, right_rows: float, output_rows: float, join_op: JoinOp) -> float:
        t = self.timing
        left_rows, right_rows = max(left_rows, 0.0), max(right_rows, 0.0)
        output_rows = max(output_rows, 0.0)
        cost = output_rows * t.emit_ms
        if join_op is JoinOp.HASH:
            cost += min(left_rows, right_rows) * t.build_ms
            cost += max(left_rows, right_rows) * t.probe_ms
        elif join_op is JoinOp.MERGE:
            total = left_rows + right_rows
            log_factor = max(np.log2(max(total, 2.0)), 1.0)
            cost += total * t.sort_ms * log_factor + total * t.probe_ms
        else:
            cost += left_rows * right_rows * t.pair_ms
        return cost
