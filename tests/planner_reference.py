"""Test-side references for join enumeration: the set-based planner.

``reference_dp_join_enumeration`` is the System-R DP as it was before
the planner moved onto bitmasks (``repro.optimizer.JoinGraph``): every
table subset is a frozenset, asked ``Query.is_connected`` by a graph
walk, every split rescans the join list through ``Query.joins_between``,
and each operator is priced by its own ``join_cost`` call.
``ReferenceOracle`` is the true-cardinality oracle with that era's peel
(``joins_between`` and ``is_connected`` per candidate).  The
``reference_*_join_cost`` functions are the per-operator cost formulas
before one ``join_costs`` call priced every operator.

Not production code: the tests require the system's plans, costs,
cardinalities (keys and their order), oracle executions and errors to
equal these bit for bit.
"""

from itertools import combinations

from repro.engine.cost_model import DEFAULT_COST_MODEL
from repro.engine.plan import JoinOp, PlanNode, join_node, scan_node
from repro.errors import DisconnectedQueryError
from repro.optimizer import PlannedQuery, QueryCardinalities, TrueCardinalityOracle


def reference_dp_join_enumeration(query, estimator, cost_model=DEFAULT_COST_MODEL, left_deep_only=True):
    tables = list(query.tables)
    n = len(tables)
    view = estimator.for_query(query)
    card = view.rows

    best = {}
    for table in tables:
        subset = frozenset([table])
        has_filter = len(query.filter_for(table)) > 0
        scan_op, cost = cost_model.best_scan_op(view.base_rows(table), card(subset), has_filter)
        node = scan_node(table, query.filter_for(table), scan_op)
        node.estimated_cardinality = card(subset)
        best[subset] = (cost, node)

    all_tables = frozenset(tables)
    for size in range(2, n + 1):
        for combo in combinations(tables, size):
            subset = frozenset(combo)
            if not query.is_connected(subset):
                continue
            out_rows = card(subset)
            candidate = None
            for left_subset, right_subset in _partitions(subset, left_deep_only):
                if left_subset not in best or right_subset not in best:
                    continue
                predicates = query.joins_between(set(left_subset), set(right_subset))
                if not predicates:
                    continue
                left_cost, left_plan = best[left_subset]
                right_cost, right_plan = best[right_subset]
                join_op, op_cost = _argmin_join_cost(
                    cost_model, card(left_subset), card(right_subset), out_rows
                )
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


def _partitions(subset, left_deep_only):
    items = sorted(subset)
    if left_deep_only:
        for table in items:
            yield subset - {table}, frozenset([table])
        return
    rest = items[1:]
    for r in range(0, len(rest) + 1):
        for combo in combinations(rest, r):
            left = frozenset((items[0],) + combo)
            right = subset - left
            if right:
                yield left, right


def _argmin_join_cost(cost_model, left_rows, right_rows, output_rows):
    best_op, best_cost = None, float("inf")
    for op in JoinOp:
        cost = cost_model.join_cost(left_rows, right_rows, output_rows, op)
        if cost < best_cost:
            best_op, best_cost = op, cost
    return best_op, best_cost


class ReferenceOracle(TrueCardinalityOracle):
    def for_query(self, query):
        if self._view is None or self._view.query is not query:
            self._view = _ReferenceExecuted(self, query)
        return self._view


class _ReferenceExecuted(QueryCardinalities):
    def __init__(self, estimator, query):
        super().__init__(estimator, query)
        self._intermediates = {}

    def _estimate(self, subset):
        return float(self._intermediate(subset).cardinality)

    def _intermediate(self, subset):
        from repro.engine.executor import ExecutionLimitError
        from repro.engine.operators import JoinExpansionError, execute_join, execute_scan

        if subset in self._intermediates:
            return self._intermediates[subset]
        oracle, query = self.estimator, self.query
        if len(subset) == 1:
            table = next(iter(subset))
            node = scan_node(table, query.filter_for(table))
            intermediate, _ = execute_scan(node, oracle.db)
        else:
            peel = None
            for candidate in sorted(subset):
                rest = subset - {candidate}
                if query.joins_between(set(rest), {candidate}) and query.is_connected(rest):
                    peel = candidate
                    break
            if peel is None:
                raise DisconnectedQueryError(f"subset {sorted(subset)} is not connected in query joins")
            rest = subset - {peel}
            left = self._intermediate(rest)
            right = self._intermediate(frozenset([peel]))
            predicates = query.joins_between(set(rest), {peel})
            node = join_node(_dummy_plan(rest, query), _dummy_plan(frozenset([peel]), query), predicates)
            try:
                intermediate, _ = execute_join(
                    node, left, right, oracle.db, max_rows=oracle.max_intermediate_rows
                )
            except JoinExpansionError as exc:
                raise ExecutionLimitError(str(exc)) from exc
        oracle.executions += 1
        if (
            oracle.max_intermediate_rows is not None
            and intermediate.cardinality > oracle.max_intermediate_rows
        ):
            raise ExecutionLimitError(
                f"true-cardinality oracle intermediate exceeds cap on subset {sorted(subset)}"
            )
        self._intermediates[subset] = intermediate
        return intermediate


def _dummy_plan(subset, query):
    if len(subset) == 1:
        table = next(iter(subset))
        return scan_node(table, query.filter_for(table))
    return PlanNode(tables=subset, left=scan_node(sorted(subset)[0]), right=scan_node(sorted(subset)[1]))


def reference_join_cost(model, left_rows, right_rows, output_rows, join_op):
    """``CostModel.join_cost`` for one operator, as its own formula."""
    left_rows = max(left_rows, 1.0)
    right_rows = max(right_rows, 1.0)
    output_rows = max(output_rows, 0.0)
    emit = output_rows * model.cpu_tuple_cost
    if join_op is JoinOp.HASH:
        build, probe = min(left_rows, right_rows), max(left_rows, right_rows)
        return build * model.hash_build_cost + probe * model.cpu_operator_cost + emit
    return left_rows * right_rows * model.cpu_operator_cost + emit


def reference_timing_join_cost(model, left_rows, right_rows, output_rows, join_op):
    """``TimingAlignedCostModel.join_cost`` for one operator, as its own formula."""
    t = model.timing
    left_rows, right_rows = max(left_rows, 0.0), max(right_rows, 0.0)
    output_rows = max(output_rows, 0.0)
    cost = output_rows * t.emit_ms
    if join_op is JoinOp.HASH:
        cost += min(left_rows, right_rows) * t.build_ms
        cost += max(left_rows, right_rows) * t.probe_ms
    else:
        cost += left_rows * right_rows * t.pair_ms
    return cost
