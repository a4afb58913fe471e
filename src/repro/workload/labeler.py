"""Query labeling: true cardinalities, true costs, optimal join orders.

The paper's training data is (E(P), Card, Cost, P_t): for every query it
derives the initial plan, executes it in PostgreSQL to obtain the true
cardinality and cost of *every sub-plan node*, and (for queries joining
at most 8 tables) derives the optimal join order with ECQO.

``QueryLabeler`` reproduces that: the initial plan comes from the
classical planner, execution in :mod:`repro.engine` yields per-node true
cardinalities and simulated per-node latencies (the cost labels), and
:func:`repro.optimizer.optimal_join_order` supplies the JoinSel label.

Skips are *accounted for*, not swallowed: a query is only dropped for
the two well-understood reasons — execution exceeded the intermediate
row cap (:class:`ExecutionLimitError`) or the join graph is disconnected
(:class:`DisconnectedQueryError`) — and the reason is recorded on the
labeler (:attr:`QueryLabeler.last_skip_reason`, :attr:`skip_counts`) so
callers such as the serving feedback loop can report why experience was
rejected.  Any other error is a genuine planner/connectivity bug and
propagates.  When only the optimal-order derivation is skipped — over
the row cap, disconnected, or a query of more than
``max_optimal_tables`` tables — the query is still labeled and the
reason lands in ``extras``.

The optimal order's oracle starts from the intermediates of the plan
just executed for the labels, so no table subset executes twice for one
query.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from ..engine.executor import ExecutionLimitError, execute_plan
from ..engine.operators import Intermediate
from ..engine.plan import PlanNode
from ..errors import DisconnectedQueryError
from ..optimizer.planner import PostgresStylePlanner, plan_with_order
from ..optimizer.selectivity import HistogramEstimator, TrueCardinalityOracle
from ..optimizer.optimal import optimal_join_order
from ..sql.query import Query
from ..storage.catalog import Database

__all__ = [
    "LabeledQuery", "QueryLabeler", "SKIP_OVER_LIMIT", "SKIP_DISCONNECTED", "SKIP_TOO_MANY_TABLES",
]

# Canonical skip-reason labels (keys of QueryLabeler.skip_counts and the
# values of LabeledQuery.extras["optimal_order_skip"]; the last is an
# optimal-order skip only).
SKIP_OVER_LIMIT = "over_limit"
SKIP_DISCONNECTED = "disconnected"
SKIP_TOO_MANY_TABLES = "too_many_tables"


@dataclass
class LabeledQuery:
    """A query with its initial plan and ground-truth labels.

    ``node_cardinalities``/``node_costs`` follow the plan's preorder
    node ordering (root first); costs are cumulative per sub-plan (the
    simulated latency of executing the subtree), matching the paper's
    "cardinality and cost of the sub-plan rooted at each node".
    """

    query: Query
    plan: PlanNode
    node_cardinalities: list[int]
    node_costs: list[float]
    total_time_ms: float
    optimal_order: list[str] | None = None
    extras: dict = field(default_factory=dict)

    @property
    def cardinality(self) -> int:
        return self.node_cardinalities[0]

    @property
    def cost(self) -> float:
        return self.node_costs[0]

    @property
    def num_nodes(self) -> int:
        return len(self.node_cardinalities)


def _subtree_costs(plan: PlanNode, node_times: list[float]) -> list[float]:
    """Cumulative per-subtree latency, preorder-aligned with node_times."""
    order = plan.nodes_preorder()
    time_of = {id(node): t for node, t in zip(order, node_times)}

    memo: dict[int, float] = {}

    def total(node: PlanNode) -> float:
        if id(node) not in memo:
            memo[id(node)] = time_of[id(node)] + sum(total(c) for c in node.children())
        return memo[id(node)]

    return [total(node) for node in order]


class QueryLabeler:
    """Labels queries against a database."""

    def __init__(
        self,
        db: Database,
        planner: PostgresStylePlanner | None = None,
        max_optimal_tables: int = 8,
        max_intermediate_rows: int | None = 5_000_000,
    ):
        self.db = db
        self.planner = planner or PostgresStylePlanner(db)
        self.max_optimal_tables = max_optimal_tables
        self.max_intermediate_rows = max_intermediate_rows
        # Why the last label()/label_with_order() call returned None
        # (SKIP_* constant), and running totals per reason.  Callers that
        # need per-query accounting (the feedback loop) read these.
        self.last_skip_reason: str | None = None
        self.last_skip_detail: str | None = None
        self.skip_counts: dict[str, int] = {}
        self._order_estimator: HistogramEstimator | None = None

    # ------------------------------------------------------------------
    def _record_skip(self, reason: str, error: BaseException) -> None:
        self.last_skip_reason = reason
        self.last_skip_detail = str(error)
        self.skip_counts[reason] = self.skip_counts.get(reason, 0) + 1

    def _derive_optimal(
        self, query: Query, extras: dict, executed: dict[frozenset, Intermediate]
    ) -> list[str] | None:
        """The ECQO optimal-order label; skip reasons land in ``extras``.

        ``executed`` is the labeled plan's ``ExecutionResult.intermediates``
        (run under the same row cap): the oracle starts from them.
        """
        if query.num_tables > self.max_optimal_tables:
            extras["optimal_order_skip"] = SKIP_TOO_MANY_TABLES
            extras["optimal_order_skip_detail"] = (
                f"query joins {query.num_tables} tables; optimal orders are derived "
                f"for at most {self.max_optimal_tables}"
            )
            return None
        try:
            oracle = TrueCardinalityOracle(
                self.db, max_intermediate_rows=self.max_intermediate_rows
            )
            oracle.seed(query, executed)
            return optimal_join_order(query, self.db, oracle=oracle)
        except ExecutionLimitError as error:
            extras["optimal_order_skip"] = SKIP_OVER_LIMIT
            extras["optimal_order_skip_detail"] = str(error)
        except DisconnectedQueryError as error:
            extras["optimal_order_skip"] = SKIP_DISCONNECTED
            extras["optimal_order_skip_detail"] = str(error)
        return None

    def _label_plan(
        self,
        query: Query,
        make_plan: Callable[[], PlanNode],
        extras: dict,
        with_optimal_order: bool,
    ) -> LabeledQuery | None:
        """Build the plan with ``make_plan()``, execute it and label the query.

        The shared tail of :meth:`label` and :meth:`label_with_order`:
        over-limit and disconnected skips are recorded and return None;
        an optimal-order skip reason is added to ``extras``.
        """
        self.last_skip_reason = self.last_skip_detail = None
        try:
            plan = make_plan()
            result = execute_plan(plan, self.db, max_intermediate_rows=self.max_intermediate_rows)
        except ExecutionLimitError as error:
            self._record_skip(SKIP_OVER_LIMIT, error)
            return None
        except DisconnectedQueryError as error:
            self._record_skip(SKIP_DISCONNECTED, error)
            return None

        optimal = (
            self._derive_optimal(query, extras, result.intermediates) if with_optimal_order else None
        )
        return LabeledQuery(
            query=query,
            plan=plan,
            node_cardinalities=result.node_cardinalities,
            node_costs=_subtree_costs(plan, result.node_times),
            total_time_ms=result.simulated_ms,
            optimal_order=optimal,
            extras=extras,
        )

    def label(self, query: Query, with_optimal_order: bool = False) -> LabeledQuery | None:
        """Label one query; returns None when execution exceeds limits.

        The initial plan P is the classical planner's choice (the paper
        provides "Q's initial plan" from the existing DBMS).  Only the
        two well-understood skip conditions return None (with the reason
        recorded on the labeler); other errors propagate — they are bugs,
        not over-limit queries.
        """
        return self._label_plan(
            query, lambda: self.planner.plan(query).plan, {}, with_optimal_order
        )

    def label_with_order(
        self, query: Query, order: list[str], with_optimal_order: bool = False
    ) -> LabeledQuery | None:
        """Label the execution of an externally-chosen join order.

        The serving feedback path uses this to turn a *served* join order
        into fresh (E(P), Card, Cost, P_t) experience: the order becomes
        a left-deep physical plan (operators chosen by the classical cost
        model, exactly like the Table 2 execution harness), the plan is
        executed under the labeler's intermediate-row bound, and the
        optimal-order label is derived like :meth:`label` does.  Returns
        None with the skip reason recorded for over-limit/disconnected;
        an *illegal* order over a connected graph raises ``ValueError`` —
        a serving layer that emitted one has a bug worth surfacing.
        """
        if not query.is_connected():
            # left_deep_plan would report this as an "illegal join
            # order" ValueError; classify it as what it is — no order
            # over this query is executable.
            self._record_skip(
                SKIP_DISCONNECTED,
                DisconnectedQueryError(f"query join graph over {query.tables} is disconnected"),
            )
            return None
        if self._order_estimator is None:
            self._order_estimator = HistogramEstimator(self.db)
        return self._label_plan(
            query,
            lambda: plan_with_order(query, order, self._order_estimator),
            {"served_order": list(order)},
            with_optimal_order,
        )

    def label_many(
        self, queries: list[Query], with_optimal_order: bool = False
    ) -> list[LabeledQuery]:
        """Label a workload, dropping (and counting) over-limit queries."""
        labeled = []
        for query in queries:
            item = self.label(query, with_optimal_order=with_optimal_order)
            if item is not None:
                labeled.append(item)
        return labeled
