"""PostgreSQL-style analytical cost model over *estimated* cardinalities.

Where :mod:`repro.engine.timing` charges true observed work after
execution, this model predicts cost before execution from cardinality
estimates — it is what the classical optimizer minimises during join
enumeration, and its outputs are the "true cost" labels for the CostEst
task (computed with true cardinalities plugged in).

The structure mirrors PostgreSQL's costing: per-tuple CPU terms, a
cheaper sequential page term, random-access penalties for index scans,
build+probe terms for hash joins and per-pair terms for nested loops.

:class:`TimingAlignedCostModel`, the optimal-order DP's objective, has
no formula of its own: it calls the timing model's per-operator
functions with the rows it is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .plan import JoinOp, PlanNode, ScanOp
from .timing import DEFAULT_TIMING, TimingModel

__all__ = ["CostModel", "DEFAULT_COST_MODEL"]


@dataclass(frozen=True)
class CostModel:
    """Cost weights (arbitrary units, PostgreSQL-flavoured ratios).

    One pricing per model: a model's join formula is :meth:`join_costs`,
    both operators from one call; ``join_cost`` and ``best_join_op`` read
    it, so a subclass (``TimingAlignedCostModel``) overrides only that
    formula (and ``scan_cost``) and chooses by it.
    """

    seq_page_cost: float = 1.0
    random_page_cost: float = 4.0
    cpu_tuple_cost: float = 0.01
    cpu_index_tuple_cost: float = 0.005
    cpu_operator_cost: float = 0.0025
    rows_per_page: float = 100.0
    hash_build_cost: float = 0.015

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
        """The cost of both join operators, in ``JoinOp`` order (hash,
        nested loop): this model's one join formula."""
        left_rows = max(left_rows, 1.0)
        right_rows = max(right_rows, 1.0)
        output_rows = max(output_rows, 0.0)
        emit = output_rows * self.cpu_tuple_cost
        build, probe = min(left_rows, right_rows), max(left_rows, right_rows)
        return (
            build * self.hash_build_cost + probe * self.cpu_operator_cost + emit,
            # Nested loop: every pair is examined.
            left_rows * right_rows * self.cpu_operator_cost + emit,
        )

    def join_cost(self, left_rows: float, right_rows: float, output_rows: float, join_op: JoinOp) -> float:
        """The cost of one join operator: its entry of :meth:`join_costs`."""
        hash_cost, nested_cost = self.join_costs(left_rows, right_rows, output_rows)
        return hash_cost if join_op is JoinOp.HASH else nested_cost

    def best_join_op(self, left_rows: float, right_rows: float, output_rows: float) -> tuple[JoinOp, float]:
        """Cheapest physical join operator for the given sizes, as priced
        by :meth:`join_costs`; hash wins a tie."""
        hash_cost, nested_cost = self.join_costs(left_rows, right_rows, output_rows)
        if nested_cost < hash_cost:
            return JoinOp.NESTED_LOOP, nested_cost
        return JoinOp.HASH, hash_cost

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
    """A cost model whose operator costs are the simulated timing:
    ``timing.scan_time`` / ``join_time`` called with the given rows.

    Used by the optimal-order oracle: with true cardinalities plugged
    in, the DP minimises simulated execution time with every operator
    chosen on those true cardinalities.  That is not what Tables 2/3
    measure: they execute each order with operators chosen on histogram
    estimates, under which the label is not the fastest legal order for
    some queries (ROADMAP item 4).
    """

    def __init__(self, timing: TimingModel = DEFAULT_TIMING):
        object.__setattr__(self, "timing", timing)

    def scan_cost(self, base_rows: float, output_rows: float, scan_op: ScanOp) -> float:
        base_rows = max(base_rows, 0.0)
        output_rows = max(output_rows, 0.0)
        if scan_op is ScanOp.INDEX:
            # One lookup, where the executor charges one per filter
            # predicate: ROADMAP item 4's remainder.
            return self.timing.scan_time(output_rows, output_rows, 1)
        return self.timing.scan_time(base_rows, output_rows)

    def join_costs(self, left_rows: float, right_rows: float, output_rows: float) -> tuple:
        left_rows, right_rows = max(left_rows, 0.0), max(right_rows, 0.0)
        output_rows = max(output_rows, 0.0)
        join_time = self.timing.join_time
        return (
            join_time(output_rows, min(left_rows, right_rows), max(left_rows, right_rows), 0),
            join_time(output_rows, 0, 0, left_rows * right_rows),
        )
