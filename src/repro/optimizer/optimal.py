"""Optimal join orders from true cardinalities (the ECQO substitute).

The paper uses the ECQO program [Trummer 2019] to produce ground-truth
optimal join orders for training and the "Optimal" row of Table 2.
ECQO's essence is exact optimization with *exact* cardinalities; this
module reproduces that with the DP enumerator plugged into the
true-cardinality oracle (which executes every connected sub-query).

The DP prices each operator with the functions the executor times it
by, so a plan's cost is its executed simulated time, except that an
index scan of k predicates is charged one lookup, not k (ROADMAP item
4's remainder).

Like the paper — which could only afford ECQO for queries touching at
most 8 tables — this is exponential, so callers should bound the table
count.
"""

from __future__ import annotations

from ..engine.cost_model import TimingAlignedCostModel
from ..sql.query import Query
from ..storage.catalog import Database
from .join_enum import PlannedQuery, dp_join_enumeration
from .selectivity import TrueCardinalityOracle

__all__ = ["optimal_plan", "optimal_join_order"]

_OBJECTIVE = TimingAlignedCostModel()


def optimal_plan(
    query: Query,
    db: Database,
    left_deep_only: bool = True,
    oracle: TrueCardinalityOracle | None = None,
) -> PlannedQuery:
    """The minimal-simulated-time plan under true cardinalities.

    The objective is :class:`TimingAlignedCostModel`, so "optimal"
    means minimal *simulated execution time* with every operator chosen
    on true cardinalities.  Tables 2/3 instead execute each order with
    operators chosen on histogram estimates, and under that policy this
    plan's order is not always the fastest legal one (ROADMAP item 4).
    """
    oracle = oracle or TrueCardinalityOracle(db)
    return dp_join_enumeration(query, oracle, cost_model=_OBJECTIVE, left_deep_only=left_deep_only)


def optimal_join_order(
    query: Query,
    db: Database,
    oracle: TrueCardinalityOracle | None = None,
) -> list[str]:
    """The optimal left-deep join order (training label for Trans_JO)."""
    return optimal_plan(query, db, left_deep_only=True, oracle=oracle).join_order
