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

# ``join_costs``' order and ``best_join_op``'s tie order (iterating the
# enum itself costs a generator per call).
_JOIN_OPS = tuple(JoinOp)
_JOIN_INDEX = {op: i for i, op in enumerate(_JOIN_OPS)}


def _unit_log2(total: float) -> float:
    """The merge join's log factor at its floor, 1: priced with it, the
    merge cost is a lower bound of the one ``np.log2`` gives."""
    return 1.0


@dataclass(frozen=True)
class CostModel:
    """Cost weights (arbitrary units, PostgreSQL-flavoured ratios).

    One pricing per model: a model's join formula is :meth:`_join_costs`,
    all three operators from one call, with the merge join's ``log2``
    passed in; :meth:`join_costs`, ``join_cost`` and ``best_join_op``
    read it, so a subclass (``TimingAlignedCostModel``) overrides only
    that formula (and ``scan_cost``) and chooses by it.
    """

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

    def join_costs(self, left_rows: float, right_rows: float, output_rows: float) -> tuple:
        """The cost of every join operator, in ``JoinOp`` order (hash,
        merge, nested loop)."""
        return self._join_costs(left_rows, right_rows, output_rows, np.log2)

    def _join_costs(self, left_rows: float, right_rows: float, output_rows: float, log2) -> tuple:
        """This model's one join formula, the merge sort's log factor
        ``max(log2(max(total, 2)), 1)`` taken through ``log2``."""
        left_rows = max(left_rows, 1.0)
        right_rows = max(right_rows, 1.0)
        output_rows = max(output_rows, 0.0)
        emit = output_rows * self.cpu_tuple_cost
        build, probe = min(left_rows, right_rows), max(left_rows, right_rows)
        total = left_rows + right_rows
        log_factor = max(log2(max(total, 2.0)), 1.0)
        return (
            build * self.hash_build_cost + probe * self.cpu_operator_cost + emit,
            total * self.sort_cost * log_factor + total * self.cpu_operator_cost + emit,
            # Nested loop: every pair is examined.
            left_rows * right_rows * self.cpu_operator_cost + emit,
        )

    def join_cost(self, left_rows: float, right_rows: float, output_rows: float, join_op: JoinOp) -> float:
        """The cost of one join operator: its entry of :meth:`join_costs`."""
        return self.join_costs(left_rows, right_rows, output_rows)[_JOIN_INDEX[join_op]]

    def best_join_op(self, left_rows: float, right_rows: float, output_rows: float) -> tuple[JoinOp, float]:
        """Cheapest physical join operator for the given sizes (the first
        in ``JoinOp`` order on a tie), as priced by :meth:`join_costs`.

        Merge is first priced with its log factor at 1, a lower bound
        (the factor is >= 1 and rounding is monotone).  When hash already
        costs no more than that bound, or nested loop less, merge cannot
        be chosen and the log is never taken; otherwise all three are
        priced in full.  The operator and cost (its type included) are
        :meth:`join_costs`' argmin either way.
        """
        costs = self._join_costs(left_rows, right_rows, output_rows, _unit_log2)
        if not (costs[0] <= costs[1] or costs[2] < costs[1]):
            costs = self.join_costs(left_rows, right_rows, output_rows)
        best_op, best_cost = None, float("inf")
        for op, cost in zip(_JOIN_OPS, costs):
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

    def _join_costs(self, left_rows: float, right_rows: float, output_rows: float, log2) -> tuple:
        t = self.timing
        left_rows, right_rows = max(left_rows, 0.0), max(right_rows, 0.0)
        output_rows = max(output_rows, 0.0)
        emit = output_rows * t.emit_ms
        total = left_rows + right_rows
        log_factor = max(log2(max(total, 2.0)), 1.0)
        return (
            emit + min(left_rows, right_rows) * t.build_ms + max(left_rows, right_rows) * t.probe_ms,
            emit + (total * t.sort_ms * log_factor + total * t.probe_ms),
            emit + left_rows * right_rows * t.pair_ms,
        )
