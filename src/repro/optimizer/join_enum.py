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
from .join_graph import JoinGraph
from .selectivity import CardinalityEstimator

__all__ = ["dp_join_enumeration", "greedy_join_order", "PlannedQuery"]

#: The most tables the DP enumerates; the planner orders larger queries
#: greedily.
MAX_DP_TABLES = 10


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
) -> PlannedQuery:
    """Optimal join order via dynamic programming over connected subsets.

    Cost of a plan = sum of operator costs under ``cost_model`` with
    cardinalities supplied by ``estimator``.  With ``left_deep_only``
    the search space matches the paper's focus (Section 3.2); otherwise
    all bushy partitions of each subset are considered.  A query of
    more than :data:`MAX_DP_TABLES` tables raises ``ValueError``.

    Subsets are masks of the view's :class:`JoinGraph`.  Only connected
    subsets are visited — each size's are grown from the previous
    size's by one neighbouring table — and each keeps the tuple of its
    cheapest split; :class:`PlanNode` objects are built for the winning
    tree alone.  Plans, costs and the ``card`` calls (order included)
    are those of the set-based DP in ``tests/planner_reference.py``,
    bit for bit.
    """
    tables = list(query.tables)
    n = len(tables)
    if n > MAX_DP_TABLES:
        raise ValueError(f"DP enumeration limited to {MAX_DP_TABLES} tables, query has {n}")
    if n == 0:
        raise ValueError("query touches no tables")

    view = estimator.for_query(query)
    card = view.mask_rows
    graph = view.graph
    best_join_op = cost_model.best_join_op

    # mask -> (cost, operator, left mask, right mask, rows) of the
    # cheapest plan over that subset; a scan's halves are 0.
    best: dict[int, tuple] = {}
    for table in tables:
        bit = graph.bit[table]
        rows = card(bit)
        scan_op, cost = cost_model.best_scan_op(
            view.base_rows(table), rows, len(query.filter_for(table)) > 0
        )
        best[bit] = (cost, scan_op, 0, 0, rows)

    # Each size's connected subsets in ``combinations(query.tables,
    # size)`` order, so ``card`` sees them in the reference's order.
    for size in range(2, n + 1):
        for mask in graph.connected_subsets(size):
            out_rows = card(mask)
            winner = None
            for left, right in _splits(mask, graph, left_deep_only):
                left_best, right_best = best.get(left), best.get(right)
                if left_best is None or right_best is None:
                    continue
                join_op, op_cost = best_join_op(left_best[4], right_best[4], out_rows)
                total = left_best[0] + right_best[0] + op_cost
                if winner is None or total < winner[0]:
                    winner = (total, join_op, left, right, out_rows)
            best[mask] = winner

    full = sum(graph.bits)
    if full not in best:
        raise DisconnectedQueryError("query join graph is disconnected: no complete plan exists")

    def build(mask: int) -> PlanNode:
        _, op, left, right, rows = best[mask]
        if left:
            node = join_node(build(left), build(right), graph.predicates_between(left, right), op)
        else:
            table = graph.table_of[mask]
            node = scan_node(table, query.filter_for(table), op)
        node.estimated_cardinality = rows
        return node

    return PlannedQuery(build(full), best[full][0], view.cardinalities)


def _splits(mask: int, graph: JoinGraph, left_deep_only: bool) -> list[tuple[int, int]]:
    """The (left, right) splits of ``mask`` joined by a predicate, in
    sorted-name order; right is a single table when ``left_deep_only``."""
    neighbours = graph.neighbours
    if left_deep_only:
        return [(mask ^ bit, bit) for _, bit in graph.by_name if mask & bit and neighbours[bit] & mask]
    # Proper non-empty splits with the first member on the left, which
    # halves the symmetric space.
    members = [bit for _, bit in graph.by_name if mask & bit]
    first, rest = members[0], members[1:]
    splits = []
    for r in range(len(rest)):
        for combo in combinations(rest, r):
            left = first + sum(combo)
            if graph.joined(left, mask ^ left):
                splits.append((left, mask ^ left))
    return splits


def greedy_join_order(
    query: Query,
    estimator: CardinalityEstimator,
) -> PlannedQuery:
    """Greedy smallest-intermediate-first join ordering (GEQO stand-in).

    Used for queries too large for DP: start from the smallest filtered
    table and repeatedly join the neighbour that minimises the estimated
    intermediate size.  Operators are priced by the default cost model.
    """
    remaining = set(query.tables)
    view = estimator.for_query(query)
    card = view.rows
    graph = view.graph

    # Ties go to the first name, whatever the set's (hash-seeded) order.
    start = min(sorted(remaining), key=lambda t: card(frozenset([t])))
    has_filter = len(query.filter_for(start)) > 0
    scan_op, total_cost = DEFAULT_COST_MODEL.best_scan_op(
        view.base_rows(start), card(frozenset([start])), has_filter
    )
    plan = scan_node(start, query.filter_for(start), scan_op)
    joined = {start}
    joined_mask = graph.bit[start]
    remaining.discard(start)

    while remaining:
        candidates = [t for t in sorted(remaining) if graph.neighbours[graph.bit[t]] & joined_mask]
        if not candidates:
            raise DisconnectedQueryError("query join graph is disconnected")
        chosen = min(candidates, key=lambda t: card(frozenset(joined | {t})))
        subset = frozenset(joined | {chosen})
        predicates = graph.predicates_toward(joined_mask, chosen)
        has_filter = len(query.filter_for(chosen)) > 0
        scan_op, scan_cost = DEFAULT_COST_MODEL.best_scan_op(
            view.base_rows(chosen), card(frozenset([chosen])), has_filter
        )
        right = scan_node(chosen, query.filter_for(chosen), scan_op)
        join_op, op_cost = DEFAULT_COST_MODEL.best_join_op(
            card(frozenset(joined)), card(frozenset([chosen])), card(subset)
        )
        plan = join_node(plan, right, predicates, join_op)
        plan.estimated_cardinality = card(subset)
        total_cost += scan_cost + op_cost
        joined.add(chosen)
        joined_mask |= graph.bit[chosen]
        remaining.discard(chosen)

    return PlannedQuery(plan, total_cost, view.cardinalities)
