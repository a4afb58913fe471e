"""High-level planner facades.

``PostgresStylePlanner`` = histogram statistics + DP enumeration: the
classical baseline whose plans and estimates populate the "PostgreSQL"
rows of Tables 1-3.  ``plan_with_orders`` builds the physical left-deep
plans of externally-chosen join orders (MTMLF-QO's predicted orders, the
cost rerank's candidates) with each distinct prefix planned once, and
``plan_with_order`` is its one-order case.
"""

from __future__ import annotations

from ..engine.cost_model import DEFAULT_COST_MODEL, CostModel
from ..engine.plan import PlanNode, join_node, scan_node
from ..sql.query import Query
from ..storage.catalog import Database
from .join_enum import PlannedQuery, dp_join_enumeration, greedy_join_order
from .selectivity import CardinalityEstimator, HistogramEstimator

__all__ = ["PostgresStylePlanner", "plan_with_order", "plan_with_orders"]

# Queries of more tables than this are ordered greedily, not by the DP.
MAX_DP_TABLES = 10


class PostgresStylePlanner:
    """Cost-based planner with ANALYZE statistics (the classical baseline):
    the left-deep DP under the default cost model, or the greedy order
    for queries of more than ``MAX_DP_TABLES`` tables."""

    def __init__(self, db: Database):
        self.db = db
        self.estimator = HistogramEstimator(db)

    def plan(self, query: Query) -> PlannedQuery:
        """Choose a join order and physical operators for ``query``."""
        if query.num_tables <= MAX_DP_TABLES:
            return dp_join_enumeration(query, self.estimator)
        return greedy_join_order(query, self.estimator)

    def estimate_cardinality(self, query: Query) -> float:
        """Estimated output cardinality of the full query."""
        return self.estimator.estimate(query, frozenset(query.tables))


def plan_with_orders(
    query: Query,
    orders: list[list[str]],
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> list[PlanNode | None]:
    """Physical left-deep plans for externally-supplied join orders.

    Scan and join operators are chosen by ``cost_model`` using
    ``estimator``'s cardinalities (bound once, ``estimator.for_query``);
    the join *orders* are fixed.  Each distinct prefix — its node, rows,
    operator and cost — is built once, so orders that share a prefix
    share that :class:`PlanNode`, and a table's scan node is shared by
    every order: treat the plans as read-only.  An illegal order, one
    that joins a table with no join predicate to the tables before it,
    yields None; an order that does not cover the query's tables raises
    ``ValueError``.
    """
    view = estimator.for_query(query)
    graph = view.graph
    tables = sorted(query.tables)
    scans: dict[str, PlanNode] = {}
    prefixes: dict[tuple, PlanNode | None] = {}

    def costed(node: PlanNode) -> PlanNode:
        view.rows(node.tables)
        cost_model.node_cost(node, view.cardinalities, view.base)
        return node

    def scan(table: str) -> PlanNode:
        node = scans.get(table)
        if node is None:
            node = scans[table] = costed(scan_node(table, query.filter_for(table)))
        return node

    plans: list[PlanNode | None] = []
    for order in orders:
        if sorted(order) != tables:
            raise ValueError(f"order {order} does not cover query tables {query.tables}")
        node = scan(order[0])
        # A prefix's join predicates are the ``graph.toward`` entries of
        # its last table whose neighbour the tables before it hold, as
        # ``query.joins_between`` lists them; every prefix shares one
        # oriented (reversed) relation per join.
        joined = graph.bit[order[0]]
        for length in range(2, len(order) + 1):
            key = tuple(order[:length])
            if key in prefixes:
                node = prefixes[key]
            else:
                predicates = graph.predicates_toward(joined, key[-1])
                node = prefixes[key] = (
                    costed(join_node(node, scan(key[-1]), predicates)) if predicates else None
                )
            if node is None:
                break
            joined |= graph.bit[key[-1]]
        plans.append(node)
    return plans


def plan_with_order(
    query: Query,
    order: list[str],
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PlanNode:
    """Physical left-deep plan for one externally-supplied join order.

    The one-order case of :func:`plan_with_orders`: this is how predicted
    join orders (from Trans_JO or any baseline) are turned into
    executable plans.  An illegal order raises ``ValueError``.  Pass
    ``estimator.for_query(query)`` when planning several orders of one
    query one at a time: every table's filter selectivity and each
    shared prefix's rows are then estimated once.
    """
    plan = plan_with_orders(query, [order], estimator, cost_model)[0]
    if plan is None:
        raise ValueError(
            f"illegal join order: {order} joins a table with no join predicate to the tables before it"
        )
    return plan
