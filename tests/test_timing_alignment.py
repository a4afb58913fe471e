"""The timing-aligned cost model must equal the executor's timing.

The "Optimal" rows of Tables 2/3 are only meaningful if the DP's
objective matches what the evaluation measures; these tests pin the
formula equivalence operator by operator, and the optimal plan's DP
cost against its executed simulated time.
"""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.engine import (
    DEFAULT_TIMING,
    JoinOp,
    ScanOp,
    TimingAlignedCostModel,
    execute_plan,
    left_deep_plan,
)
from repro.optimizer import optimal_plan
from repro.sql import parse_query
from repro.storage import Database, JoinRelation, Table
from test_join_enumeration import database, queries


@pytest.fixture(scope="module")
def model():
    return TimingAlignedCostModel(DEFAULT_TIMING)


class TestFormulaEquivalence:
    def test_seq_scan(self, model):
        measured = DEFAULT_TIMING.scan_time(1000, 400)
        assert model.scan_cost(1000, 400, ScanOp.SEQ).hex() == measured.hex()

    def test_index_scan(self, model):
        measured = DEFAULT_TIMING.scan_time(40, 40, 1)
        assert model.scan_cost(1000, 40, ScanOp.INDEX).hex() == measured.hex()

    def test_hash_join(self, model):
        measured = DEFAULT_TIMING.join_time(300, 100, 900, 0)
        assert model.join_cost(900, 100, 300, JoinOp.HASH).hex() == measured.hex()

    def test_nested_loop(self, model):
        measured = DEFAULT_TIMING.join_time(50, 0, 0, 300 * 200)
        assert model.join_cost(300, 200, 50, JoinOp.NESTED_LOOP).hex() == measured.hex()


class TestEndToEndAlignment:
    def test_plan_cost_equals_simulated_time(self, model):
        """DP cost with true cards + fixed ops == executed simulated ms."""
        rng = np.random.default_rng(0)
        a = Table.from_dict(
            "a", {"id": np.arange(300), "k": rng.integers(0, 40, 300), "v": rng.normal(size=300)}
        )
        b = Table.from_dict("b", {"k": rng.integers(0, 40, 200)})
        db = Database("align", [a, b])
        db.add_join(JoinRelation("a", "k", "b", "k"))
        db.analyze()
        query = parse_query("SELECT COUNT(*) FROM a, b WHERE a.k = b.k AND a.v > 0")
        plan = left_deep_plan(query, ["a", "b"], join_op=JoinOp.HASH, scan_op=ScanOp.SEQ)
        result = execute_plan(plan, db)

        cards = {
            node.tables: float(node.true_cardinality) for node in plan.nodes_preorder()
        }
        base = {"a": 300.0, "b": 200.0}
        cost = model.plan_cost(plan, cards, base)
        assert cost == pytest.approx(result.simulated_ms, rel=1e-9)


class TestDPPricesWhatTheExecutorTimes:
    @given(queries(max_tables=6, thin=False))
    @settings(max_examples=60, deadline=None)
    def test_optimal_cost_is_the_executed_time(self, query):
        """The optimal plan's DP cost is its executed simulated time, bit
        for bit, except that the DP charges an index scan one lookup
        where the executor charges one per predicate: a k-predicate
        index scan executes (k - 1) lookups slower than it was priced."""
        planned = optimal_plan(query, database())
        executed = execute_plan(planned.plan, database()).simulated_ms
        extra_lookups = sum(
            len(node.filter) - 1
            for node in planned.plan.nodes_preorder()
            if node.is_scan and node.scan_op is ScanOp.INDEX and len(node.filter) > 1
        )
        if extra_lookups == 0:
            assert executed.hex() == float(planned.cost).hex()
        else:
            gap = extra_lookups * DEFAULT_TIMING.index_lookup_ms
            assert executed - planned.cost == pytest.approx(gap, abs=1e-9)
