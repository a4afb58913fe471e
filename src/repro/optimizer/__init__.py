"""``repro.optimizer`` — classical cost-based query optimization.

Histogram selectivity estimation (the "PostgreSQL" baseline), exact DP
join enumeration with a greedy fallback, and the true-cardinality
optimal-order oracle standing in for the paper's ECQO program.
"""

from .join_enum import PlannedQuery, dp_join_enumeration, greedy_join_order
from .join_graph import JoinGraph
from .optimal import optimal_join_order, optimal_plan
from .planner import PostgresStylePlanner, plan_with_order, plan_with_orders
from .selectivity import (
    CardinalityEstimator,
    HistogramEstimator,
    QueryCardinalities,
    TrueCardinalityOracle,
)

__all__ = [
    "CardinalityEstimator",
    "HistogramEstimator",
    "JoinGraph",
    "QueryCardinalities",
    "TrueCardinalityOracle",
    "dp_join_enumeration",
    "greedy_join_order",
    "PlannedQuery",
    "PostgresStylePlanner",
    "plan_with_order",
    "plan_with_orders",
    "optimal_plan",
    "optimal_join_order",
]
