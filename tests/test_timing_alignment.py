"""The timing-aligned cost model must equal the executor's timing.

The "Optimal" rows of Tables 2/3 are only meaningful if the DP's
objective matches what the evaluation measures; these tests pin the
formula equivalence operator by operator.
"""

import numpy as np
import pytest

from repro.engine import (
    DEFAULT_TIMING,
    JoinOp,
    ScanOp,
    TimingAlignedCostModel,
    execute_plan,
    left_deep_plan,
    scan_node,
)
from repro.engine.operators import WorkReport
from repro.sql import parse_query
from repro.storage import Database, JoinRelation, Table


@pytest.fixture(scope="module")
def model():
    return TimingAlignedCostModel(DEFAULT_TIMING)


class TestFormulaEquivalence:
    def test_seq_scan(self, model):
        report = WorkReport(tuples_scanned=1000, tuples_emitted=400)
        measured = DEFAULT_TIMING.scan_time(report, used_index=False)
        assert model.scan_cost(1000, 400, ScanOp.SEQ).hex() == measured.hex()

    def test_index_scan(self, model):
        report = WorkReport(tuples_scanned=40, tuples_emitted=40, extra={"index_lookups": 1})
        measured = DEFAULT_TIMING.scan_time(report, used_index=True)
        assert model.scan_cost(1000, 40, ScanOp.INDEX).hex() == measured.hex()

    def test_hash_join(self, model):
        report = WorkReport(tuples_built=100, tuples_probed=900, tuples_emitted=300)
        measured = DEFAULT_TIMING.join_time(report)
        assert model.join_cost(900, 100, 300, JoinOp.HASH).hex() == measured.hex()

    def test_nested_loop(self, model):
        report = WorkReport(pairs_examined=300 * 200, tuples_emitted=50)
        measured = DEFAULT_TIMING.join_time(report)
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
