"""High-level planner facades.

``PostgresStylePlanner`` = histogram statistics + DP enumeration: the
classical baseline whose plans and estimates populate the "PostgreSQL"
rows of Tables 1-3.  ``plan_with_order`` builds the physical plan for an
externally-chosen join order (used to execute MTMLF-QO's predicted
orders).
"""

from __future__ import annotations

from ..engine.cost_model import DEFAULT_COST_MODEL, CostModel
from ..engine.plan import PlanNode, left_deep_plan
from ..sql.query import Query
from ..storage.catalog import Database
from .join_enum import PlannedQuery, dp_join_enumeration, greedy_join_order
from .selectivity import CardinalityEstimator, HistogramEstimator

__all__ = ["PostgresStylePlanner", "plan_with_order"]


class PostgresStylePlanner:
    """Cost-based planner with ANALYZE statistics (the classical baseline)."""

    def __init__(
        self,
        db: Database,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        left_deep_only: bool = True,
        max_dp_tables: int = 10,
    ):
        self.db = db
        self.cost_model = cost_model
        self.estimator = HistogramEstimator(db)
        self.left_deep_only = left_deep_only
        self.max_dp_tables = max_dp_tables

    def plan(self, query: Query) -> PlannedQuery:
        """Choose a join order and physical operators for ``query``."""
        if query.num_tables <= self.max_dp_tables:
            return dp_join_enumeration(
                query,
                self.estimator,
                cost_model=self.cost_model,
                left_deep_only=self.left_deep_only,
            )
        return greedy_join_order(query, self.estimator, cost_model=self.cost_model)

    def estimate_cardinality(self, query: Query) -> float:
        """Estimated output cardinality of the full query."""
        return self.estimator.estimate(query, frozenset(query.tables))


def plan_with_order(
    query: Query,
    order: list[str],
    estimator: CardinalityEstimator,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> PlanNode:
    """Physical left-deep plan for an externally-supplied join order.

    Scan and join operators are chosen by ``cost_model`` using
    ``estimator``'s cardinalities; the join *order* is fixed.  This is
    how predicted join orders (from Trans_JO or any baseline) are turned
    into executable plans.  Pass ``estimator.for_query(query)`` when
    planning several orders of one query: their shared prefixes (and
    every table's filter selectivity) are then estimated once.
    """
    view = estimator.for_query(query)
    plan = left_deep_plan(query, order)
    for node in plan.nodes_postorder():
        view.rows(node.tables)
    cost_model.plan_cost(plan, view.cardinalities, view.base)  # annotates ops in place
    return plan
