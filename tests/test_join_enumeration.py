"""Join enumeration on bitmasks equals the set-based planner bit for bit.

``tests/planner_reference.py`` holds the DP and the oracle peel as they
were on frozensets.  Generated queries of up to 8 tables — reordered,
with join predicates dropped (so disconnected ones too) or repeated —
must plan identically under both, left-deep and bushy, with the
histogram estimator and the default cost model and with the
true-cardinality oracle and the timing-aligned one.
"""

import functools
import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import spanning_join_order
from naive_estimator import NaiveHistogramEstimator
from planner_reference import (
    ReferenceOracle,
    reference_dp_join_enumeration,
    reference_join_cost,
    reference_timing_join_cost,
)
from repro.core.serializer import plan_signature
from repro.datagen import generate_database
from repro.engine import execute_plan
from repro.engine.cost_model import DEFAULT_COST_MODEL, CostModel, TimingAlignedCostModel
from repro.engine.timing import TimingModel
from repro.engine.plan import JoinOp
from repro.optimizer import (
    HistogramEstimator,
    TrueCardinalityOracle,
    dp_join_enumeration,
    plan_with_order,
    plan_with_orders,
)
from repro.sql import Query
from repro.workload import WorkloadConfig, WorkloadGenerator


@functools.cache
def database():
    return generate_database(seed=5, num_tables=8, row_range=(80, 300), attr_range=(2, 3))


@st.composite
def queries(draw, max_tables=8, thin=True):
    """A generated query, its tables reordered and its joins repeated
    and (when ``thin``) dropped."""
    num_tables = draw(st.integers(1, max_tables))
    seed = draw(st.integers(0, 10_000))
    config = WorkloadConfig(min_tables=num_tables, max_tables=num_tables, seed=seed)
    query = WorkloadGenerator(database(), config).generate_query()
    tables = draw(st.permutations(query.tables))
    joins = [join for join in query.joins if not thin or draw(st.booleans()) or draw(st.booleans())]
    if joins and draw(st.booleans()):
        joins.insert(draw(st.integers(0, len(joins))), draw(st.sampled_from(joins)))
    return Query(tables=list(tables), joins=joins, filters=dict(query.filters))


def hexed(value):
    return type(value).__name__, float(value).hex()


def outcome(plan_call):
    """Everything a DP answer is compared on, or its error."""
    try:
        planned = plan_call()
    except Exception as error:  # the error itself is compared
        return type(error).__name__, str(error)
    nodes = [
        (hexed(node.estimated_cardinality), node.scan_op, node.join_op)
        for node in planned.plan.nodes_preorder()
    ]
    cardinalities = [(sorted(subset), hexed(rows)) for subset, rows in planned.cardinalities.items()]
    return plan_signature(planned.plan), nodes, hexed(planned.cost), cardinalities


@pytest.mark.parametrize("left_deep_only", [True, False], ids=["left_deep", "bushy"])
class TestDifferentialDP:
    @given(queries())
    @settings(max_examples=60, deadline=None)
    def test_histogram_plans_like_the_reference(self, left_deep_only, query):
        db = database()
        ours = outcome(
            lambda: dp_join_enumeration(query, HistogramEstimator(db), left_deep_only=left_deep_only)
        )
        reference = outcome(
            lambda: reference_dp_join_enumeration(
                query, NaiveHistogramEstimator(db), left_deep_only=left_deep_only
            )
        )
        assert ours == reference

    @given(queries())
    @settings(max_examples=30, deadline=None)
    def test_oracle_plans_and_executes_like_the_reference(self, left_deep_only, query):
        db = database()
        cost_model = TimingAlignedCostModel()
        oracle, reference_oracle = TrueCardinalityOracle(db), ReferenceOracle(db)
        ours = outcome(
            lambda: dp_join_enumeration(query, oracle, cost_model, left_deep_only=left_deep_only)
        )
        reference = outcome(
            lambda: reference_dp_join_enumeration(
                query, reference_oracle, cost_model, left_deep_only=left_deep_only
            )
        )
        assert ours == reference
        assert oracle.executions == reference_oracle.executions


@given(queries())
@settings(max_examples=30, deadline=None)
def test_oracle_peels_like_the_reference(query):
    """The whole query straight through a fresh view: its rows and the
    intermediates executed on the way (which the peel chooses), or the
    peel's refusal of a disconnected query, are the reference's."""
    db = database()
    answers = []
    for oracle in (TrueCardinalityOracle(db), ReferenceOracle(db)):
        try:
            rows = hexed(oracle.estimate(query, frozenset(query.tables)))
        except Exception as error:  # the error itself is compared
            rows = type(error).__name__, str(error)
        answers.append((rows, oracle.executions))
    assert answers[0] == answers[1]


# The merge join's cost formulas as the engine shipped them, at their
# shipped sort weights.  The engine models hash and nested loop only;
# these pin that merge, priced this way, could never have been chosen.
SHIPPED_SORT_COST, SHIPPED_SORT_MS = 0.012, 0.004


def merge_cost(model, left_rows, right_rows, output_rows):
    left_rows, right_rows = max(left_rows, 1.0), max(right_rows, 1.0)
    output_rows = max(output_rows, 0.0)
    emit = output_rows * model.cpu_tuple_cost
    total = left_rows + right_rows
    log_factor = max(np.log2(max(total, 2.0)), 1.0)
    return total * SHIPPED_SORT_COST * log_factor + total * model.cpu_operator_cost + emit


def timing_merge_cost(model, left_rows, right_rows, output_rows):
    t = model.timing
    left_rows, right_rows = max(left_rows, 0.0), max(right_rows, 0.0)
    output_rows = max(output_rows, 0.0)
    emit = output_rows * t.emit_ms
    total = left_rows + right_rows
    log_factor = max(np.log2(max(total, 2.0)), 1.0)
    return emit + (total * SHIPPED_SORT_MS * log_factor + total * t.probe_ms)


class TestJoinPricing:
    ROWS = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0, 64.0, 1e3, 4e4, 123456.789]
    MODELS = [
        (DEFAULT_COST_MODEL, reference_join_cost),
        (CostModel(hash_build_cost=0.04), reference_join_cost),
        (TimingAlignedCostModel(), reference_timing_join_cost),
    ]

    def test_join_costs_are_the_per_operator_formulas(self):
        for model, reference in self.MODELS:
            for left, right, out in itertools.product(self.ROWS, repeat=3):
                costs = model.join_costs(left, right, out)
                for op, cost in zip(JoinOp, costs):
                    expected = reference(model, left, right, out, op)
                    assert hexed(cost) == hexed(expected)
                    assert hexed(model.join_cost(left, right, out, op)) == hexed(expected)

    @staticmethod
    def merge_wins(model, merge, sizes):
        """The sizes at which merge, tried between hash and nested loop
        in the strict-``<`` argmin, would have been chosen over
        ``best_join_op``'s answer."""
        wins = []
        for left, right, out in sizes:
            op, cost = model.best_join_op(left, right, out)
            other = merge(model, left, right, out)
            if not (cost < other or (cost == other and op is JoinOp.HASH)):
                wins.append((left, right, out))
        return wins

    def test_merge_never_undercuts_the_shipped_weights(self):
        """Over the pricing grid and seeded random sizes up to 1e9 rows,
        both shipped models' chosen join costs less than merge at its
        shipped weight, or ties it with hash chosen (hash came first in
        the tie order): dropping merge changed no choice.  Hash build
        weights raised far enough (33x, 25x) show the check can fail."""
        rng = np.random.default_rng(0)
        sizes = list(itertools.product(self.ROWS, repeat=3)) + [
            tuple(float(value) for value in triple)
            for triple in 10.0 ** rng.uniform(-1, 9, size=(20_000, 3))
        ]
        assert self.merge_wins(DEFAULT_COST_MODEL, merge_cost, sizes) == []
        assert self.merge_wins(TimingAlignedCostModel(), timing_merge_cost, sizes) == []
        assert self.merge_wins(CostModel(hash_build_cost=0.5), merge_cost, sizes)
        slow_build = TimingAlignedCostModel(TimingModel(build_ms=0.1))
        assert self.merge_wins(slow_build, timing_merge_cost, sizes)


class TestExecutorOracle:
    @given(queries(max_tables=5, thin=False))
    @settings(max_examples=25, deadline=None)
    def test_every_legal_order_returns_the_oracle_rows(self, query):
        db = database()
        legal = [
            list(order)
            for order in itertools.permutations(query.tables)
            if all(query.joins_between(set(order[:i]), {order[i]}) for i in range(1, len(order)))
        ]
        assert legal
        estimator = HistogramEstimator(db).for_query(query)
        planned = plan_with_orders(query, [list(o) for o in itertools.permutations(query.tables)], estimator)
        assert [plan.leaf_tables_in_order() for plan in planned if plan is not None] == legal
        rows = {execute_plan(plan_with_order(query, order, estimator), db).cardinality for order in legal}
        assert rows == {TrueCardinalityOracle(db).estimate(query, frozenset(query.tables))}


def test_cyclic_queries_join_like_record_array_keys():
    """Every join of every left-deep prefix of generated 5-8-table
    queries over a cyclic schema: the executed rows equal the
    record-array keys' (``test_engine.record_key_join``), multi-predicate
    joins included."""
    from test_engine import assert_rows_equal, record_key_join

    from repro.engine.operators import execute_join, execute_scan

    db = database()
    multi = 0
    for seed in range(40):
        config = WorkloadConfig(min_tables=5, max_tables=8, seed=seed)
        query = WorkloadGenerator(db, config).generate_query()
        order = spanning_join_order(db.join_schema, query.tables, start=query.tables[0])
        plan = plan_with_order(query, order, HistogramEstimator(db))
        node = plan
        while node.is_join:
            node = node.left
        current, _ = execute_scan(node, db)
        for join in reversed(plan.nodes_preorder()[: query.num_tables - 1]):
            right, _ = execute_scan(join.right, db)
            expected = record_key_join(join, current, right, db)
            current, _ = execute_join(join, current, right, db)
            assert_rows_equal(current.rows, expected)
            multi += len(join.join_predicates) > 1
    assert multi >= 10


def test_greedy_ties_do_not_depend_on_the_hash_seed():
    """Two tables with equal estimates: the greedy planner starts from
    the first name under any ``PYTHONHASHSEED``.  (Seeds 0 and 2 order
    this two-name set differently.)"""
    script = textwrap.dedent(
        """
        import numpy as np
        from repro.optimizer import HistogramEstimator, greedy_join_order
        from repro.sql import Query
        from repro.storage import Database, JoinRelation, Table

        join = JoinRelation("left_t", "id", "right_t", "id")
        db = Database("tie", [
            Table.from_dict(name, {"id": np.arange(50)}, primary_key="id")
            for name in ("left_t", "right_t")
        ])
        db.add_join(join)
        db.analyze()
        query = Query(tables=["right_t", "left_t"], joins=[join])
        print(greedy_join_order(query, HistogramEstimator(db)).join_order)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["repro"].__file__)))
    orders = []
    for seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        orders.append(run.stdout.strip())
    assert orders == ["['left_t', 'right_t']"] * 2
