"""Join-order enumeration: exact DP and a greedy fallback.

``dp_join_enumeration`` is the classical System-R dynamic program over
connected subsets of the query's join graph, extended (optionally) to
bushy trees.  Combined with :class:`HistogramEstimator` it reproduces a
PostgreSQL-style planner; combined with :class:`TrueCardinalityOracle`
it is the exact-cardinality optimizer used as the "Optimal" row of
Table 2 (the ECQO substitute).
"""

from __future__ import annotations

from itertools import combinations

from ..engine.cost_model import DEFAULT_COST_MODEL, CostModel
from ..errors import DisconnectedQueryError
from ..engine.plan import PlanNode, join_node, scan_node
from ..sql.query import Query
from .selectivity import CardinalityEstimator

__all__ = ["dp_join_enumeration", "greedy_join_order", "PlannedQuery"]


class PlannedQuery:
    """The result of join enumeration: a physical plan plus metadata."""

    def __init__(self, plan: PlanNode, cost: float, cardinalities: dict[frozenset, float]):
        self.plan = plan
        self.cost = cost
        self.cardinalities = cardinalities

    @property
    def join_order(self) -> list[str]:
        return self.plan.leaf_tables_in_order()

    def __repr__(self) -> str:
        return f"PlannedQuery(order={self.join_order}, cost={self.cost:.2f})"


def dp_join_enumeration(
    query: Query,
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    left_deep_only: bool = True,
    max_dp_tables: int = 12,
) -> PlannedQuery:
    """Optimal join order via dynamic programming over connected subsets.

    Cost of a plan = sum of operator costs under ``cost_model`` with
    cardinalities supplied by ``estimator``.  With ``left_deep_only``
    the search space matches the paper's focus (Section 3.2); otherwise
    all bushy partitions of each subset are considered.
    """
    tables = list(query.tables)
    n = len(tables)
    if n > max_dp_tables:
        raise ValueError(f"DP enumeration limited to {max_dp_tables} tables, query has {n}")
    if n == 0:
        raise ValueError("query touches no tables")

    view = estimator.for_query(query)
    card = view.rows

    best: dict[frozenset, tuple[float, PlanNode]] = {}
    for table in tables:
        subset = frozenset([table])
        has_filter = len(query.filter_for(table)) > 0
        scan_op, cost = cost_model.best_scan_op(view.base_rows(table), card(subset), has_filter)
        node = scan_node(table, query.filter_for(table), scan_op)
        node.estimated_cardinality = card(subset)
        best[subset] = (cost, node)

    if n == 1:
        cost, plan = best[frozenset(tables)]
        return PlannedQuery(plan, cost, view.cardinalities)

    all_tables = frozenset(tables)
    for size in range(2, n + 1):
        for combo in combinations(tables, size):
            subset = frozenset(combo)
            if not query.is_connected(subset):
                continue
            out_rows = card(subset)
            candidate: tuple[float, PlanNode] | None = None
            for left_subset, right_subset in _partitions(subset, left_deep_only):
                if left_subset not in best or right_subset not in best:
                    continue
                predicates = query.joins_between(set(left_subset), set(right_subset))
                if not predicates:
                    continue
                left_cost, left_plan = best[left_subset]
                right_cost, right_plan = best[right_subset]
                join_op, op_cost = cost_model.best_join_op(card(left_subset), card(right_subset), out_rows)
                total = left_cost + right_cost + op_cost
                if candidate is None or total < candidate[0]:
                    node = join_node(left_plan, right_plan, predicates, join_op)
                    node.estimated_cardinality = out_rows
                    candidate = (total, node)
            if candidate is not None:
                best[subset] = candidate

    if all_tables not in best:
        raise DisconnectedQueryError("query join graph is disconnected: no complete plan exists")
    cost, plan = best[all_tables]
    return PlannedQuery(plan, cost, view.cardinalities)


def _partitions(subset: frozenset, left_deep_only: bool):
    """Yield (left, right) splits of ``subset``; right is a single table
    when ``left_deep_only``."""
    items = sorted(subset)
    if left_deep_only:
        for table in items:
            yield subset - {table}, frozenset([table])
        return
    n = len(items)
    # Enumerate proper non-empty subsets; fix items[0] on the left side to
    # halve the symmetric space.
    rest = items[1:]
    for r in range(0, len(rest) + 1):
        for combo in combinations(rest, r):
            left = frozenset((items[0],) + combo)
            right = subset - left
            if right:
                yield left, right


def greedy_join_order(
    query: Query,
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PlannedQuery:
    """Greedy smallest-intermediate-first join ordering (GEQO stand-in).

    Used for queries too large for DP: start from the smallest filtered
    table and repeatedly join the neighbour that minimises the estimated
    intermediate size.
    """
    remaining = set(query.tables)
    view = estimator.for_query(query)
    card = view.rows

    start = min(remaining, key=lambda t: card(frozenset([t])))
    has_filter = len(query.filter_for(start)) > 0
    scan_op, total_cost = cost_model.best_scan_op(
        view.base_rows(start), card(frozenset([start])), has_filter
    )
    plan = scan_node(start, query.filter_for(start), scan_op)
    joined = {start}
    remaining.discard(start)

    while remaining:
        candidates = [t for t in sorted(remaining) if query.joins_between(joined, {t})]
        if not candidates:
            raise DisconnectedQueryError("query join graph is disconnected")
        chosen = min(candidates, key=lambda t: card(frozenset(joined | {t})))
        subset = frozenset(joined | {chosen})
        predicates = query.joins_between(joined, {chosen})
        has_filter = len(query.filter_for(chosen)) > 0
        scan_op, scan_cost = cost_model.best_scan_op(
            view.base_rows(chosen), card(frozenset([chosen])), has_filter
        )
        right = scan_node(chosen, query.filter_for(chosen), scan_op)
        join_op, op_cost = cost_model.best_join_op(
            card(frozenset(joined)), card(frozenset([chosen])), card(subset)
        )
        plan = join_node(plan, right, predicates, join_op)
        plan.estimated_cardinality = card(subset)
        total_cost += scan_cost + op_cost
        joined.add(chosen)
        remaining.discard(chosen)

    return PlannedQuery(plan, total_cost, view.cardinalities)
