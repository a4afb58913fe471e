"""Tests for selectivity estimation, DP enumeration and the optimal oracle."""

import numpy as np
import pytest

from repro.engine import execute_plan, left_deep_plan
from repro.optimizer import (
    HistogramEstimator,
    PostgresStylePlanner,
    TrueCardinalityOracle,
    dp_join_enumeration,
    greedy_join_order,
    optimal_join_order,
    optimal_plan,
    plan_with_order,
)
from repro.optimizer.join_enum import MAX_DP_TABLES
from repro.sql import Comparison, CompareOp, parse_query
from repro.storage import Database, JoinRelation, Table


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(7)
    n_fact, n_d1, n_d2, n_d3 = 2000, 100, 50, 25
    d1 = Table.from_dict("d1", {"id": np.arange(n_d1), "a": rng.integers(0, 10, n_d1)}, primary_key="id")
    d2 = Table.from_dict("d2", {"id": np.arange(n_d2), "b": rng.uniform(0, 1, n_d2)}, primary_key="id")
    d3 = Table.from_dict("d3", {"id": np.arange(n_d3), "c": rng.integers(0, 3, n_d3)}, primary_key="id")
    fact = Table.from_dict(
        "fact",
        {
            "id": np.arange(n_fact),
            "d1_id": rng.integers(0, n_d1, n_fact),
            "d2_id": rng.integers(0, n_d2, n_fact),
            "d3_id": rng.integers(0, n_d3, n_fact),
            "v": rng.normal(size=n_fact),
        },
        primary_key="id",
    )
    database = Database("star", [fact, d1, d2, d3])
    database.add_join(JoinRelation("fact", "d1_id", "d1", "id"))
    database.add_join(JoinRelation("fact", "d2_id", "d2", "id"))
    database.add_join(JoinRelation("fact", "d3_id", "d3", "id"))
    database.analyze()
    return database


QUERY_3WAY = (
    "SELECT COUNT(*) FROM fact, d1, d2 "
    "WHERE fact.d1_id = d1.id AND fact.d2_id = d2.id AND d1.a <= 3 AND fact.v > 0"
)
QUERY_4WAY = (
    "SELECT COUNT(*) FROM fact, d1, d2, d3 "
    "WHERE fact.d1_id = d1.id AND fact.d2_id = d2.id AND fact.d3_id = d3.id "
    "AND d1.a <= 3 AND d3.c = 1"
)


class TestHistogramEstimator:
    def test_base_rows(self, db):
        est = HistogramEstimator(db)
        assert est.base_rows("fact") == 2000

    def test_single_table_estimate_reasonable(self, db):
        est = HistogramEstimator(db)
        query = parse_query("SELECT COUNT(*) FROM fact WHERE fact.v > 0")
        estimate = est.estimate(query, frozenset(["fact"]))
        true = (db.table("fact").column("v").values > 0).sum()
        assert estimate == pytest.approx(true, rel=0.2)

    def test_equality_estimate_uses_mcv(self, db):
        est = HistogramEstimator(db)
        query = parse_query("SELECT COUNT(*) FROM d3 WHERE d3.c = 1")
        estimate = est.estimate(query, frozenset(["d3"]))
        true = (db.table("d3").column("c").values == 1).sum()
        assert estimate == pytest.approx(true, rel=0.35)

    def test_pk_fk_join_estimate(self, db):
        est = HistogramEstimator(db)
        query = parse_query("SELECT COUNT(*) FROM fact, d1 WHERE fact.d1_id = d1.id")
        estimate = est.estimate(query, frozenset(["fact", "d1"]))
        # PK-FK join keeps fact's cardinality: 2000.
        assert estimate == pytest.approx(2000, rel=0.2)

    def test_like_uses_default_selectivity(self, db):
        est = HistogramEstimator(db)
        strings = Table.from_dict("s", {"name": [f"name{i}" for i in range(100)]})
        sdb = Database("sdb", [strings])
        est2 = HistogramEstimator(sdb)
        query = parse_query("SELECT COUNT(*) FROM s WHERE s.name LIKE '%9%'")
        estimate = est2.estimate(query, frozenset(["s"]))
        assert 0 < estimate < 5  # default 0.005 * 100

    def test_selectivity_in_unit_interval(self, db):
        est = HistogramEstimator(db)
        for op in CompareOp:
            pred = Comparison("fact", "v", op, 0.2)
            sel = est.predicate_selectivity(pred)
            assert 0.0 <= sel <= 1.0


class TestTrueOracle:
    def test_matches_execution(self, db):
        oracle = TrueCardinalityOracle(db)
        query = parse_query(QUERY_3WAY)
        estimate = oracle.estimate(query, frozenset(query.tables))
        plan = left_deep_plan(query, ["fact", "d1", "d2"])
        result = execute_plan(plan, db)
        assert estimate == result.cardinality

    def test_single_table_subset(self, db):
        oracle = TrueCardinalityOracle(db)
        query = parse_query("SELECT COUNT(*) FROM d1 WHERE d1.a <= 3")
        true = (db.table("d1").column("a").values <= 3).sum()
        assert oracle.estimate(query, frozenset(["d1"])) == true

    def test_memoization_consistency(self, db):
        oracle = TrueCardinalityOracle(db)
        query = parse_query(QUERY_3WAY)
        a = oracle.estimate(query, frozenset(["fact", "d1"]))
        b = oracle.estimate(query, frozenset(["fact", "d1"]))
        assert a == b

    def test_disconnected_subset_raises(self, db):
        oracle = TrueCardinalityOracle(db)
        query = parse_query(QUERY_4WAY)
        with pytest.raises(ValueError):
            oracle.estimate(query, frozenset(["d1", "d2"]))


class TestDPEnumeration:
    def test_left_deep_plan_is_legal(self, db):
        query = parse_query(QUERY_4WAY)
        planned = dp_join_enumeration(query, HistogramEstimator(db))
        assert planned.plan.is_left_deep()
        # every prefix joins with the next table
        order = planned.join_order
        joined = {order[0]}
        for t in order[1:]:
            assert query.joins_between(joined, {t})
            joined.add(t)

    def test_bushy_at_least_as_good_as_left_deep(self, db):
        query = parse_query(QUERY_4WAY)
        est = HistogramEstimator(db)
        left_deep = dp_join_enumeration(query, est, left_deep_only=True)
        bushy = dp_join_enumeration(query, est, left_deep_only=False)
        assert bushy.cost <= left_deep.cost + 1e-9

    def test_single_table_query(self, db):
        query = parse_query("SELECT COUNT(*) FROM fact WHERE fact.v > 0")
        planned = dp_join_enumeration(query, HistogramEstimator(db))
        assert planned.plan.is_scan

    def test_disconnected_query_raises(self, db):
        query = parse_query("SELECT COUNT(*) FROM d1, d2")
        with pytest.raises(ValueError):
            dp_join_enumeration(query, HistogramEstimator(db))

    def test_too_many_tables_raises(self):
        """The DP plans a chain of ``MAX_DP_TABLES`` tables and refuses
        one more, which the planner orders greedily instead."""
        n = MAX_DP_TABLES + 1
        names = [f"t{i}" for i in range(n)]
        chain = Database("chain", [Table.from_dict(name, {"id": np.arange(5)}) for name in names])
        for left, right in zip(names, names[1:]):
            chain.add_join(JoinRelation(left, "id", right, "id"))
        chain.analyze()

        def query(tables):
            joins = " AND ".join(f"{a}.id = {b}.id" for a, b in zip(tables, tables[1:]))
            return parse_query(f"SELECT COUNT(*) FROM {', '.join(tables)} WHERE {joins}")

        estimator = HistogramEstimator(chain)
        assert dp_join_enumeration(query(names[:MAX_DP_TABLES]), estimator).plan.tables == set(names[:-1])
        with pytest.raises(ValueError, match=f"limited to {MAX_DP_TABLES} tables"):
            dp_join_enumeration(query(names), estimator)
        planned = PostgresStylePlanner(chain).plan(query(names))
        assert planned.join_order == greedy_join_order(query(names), estimator).join_order

    def test_dp_beats_or_ties_all_enumerable_orders(self, db):
        """The DP result must not be worse than any explicit legal order."""
        from itertools import permutations

        query = parse_query(QUERY_3WAY)
        oracle = TrueCardinalityOracle(db)
        planned = optimal_plan(query, db, oracle=oracle)

        best_explicit = float("inf")
        for perm in permutations(query.tables):
            try:
                plan = plan_with_order(query, list(perm), oracle)
            except ValueError:
                continue
            cards = {n.tables: float(oracle.estimate(query, n.tables)) for n in plan.nodes_postorder()}
            base = {t: oracle.base_rows(t) for t in query.tables}
            from repro.engine import DEFAULT_COST_MODEL

            cost = DEFAULT_COST_MODEL.plan_cost(plan, cards, base)
            best_explicit = min(best_explicit, cost)
        assert planned.cost <= best_explicit + 1e-6


class TestGreedy:
    def test_greedy_produces_legal_plan(self, db):
        query = parse_query(QUERY_4WAY)
        planned = greedy_join_order(query, HistogramEstimator(db))
        assert set(planned.join_order) == set(query.tables)
        assert planned.plan.is_left_deep()

    def test_greedy_not_much_worse_than_dp(self, db):
        query = parse_query(QUERY_4WAY)
        est = HistogramEstimator(db)
        dp_cost = dp_join_enumeration(query, est).cost
        greedy_cost = greedy_join_order(query, est).cost
        assert greedy_cost >= dp_cost - 1e-9


class TestPlannerFacades:
    def test_postgres_planner(self, db):
        planner = PostgresStylePlanner(db)
        query = parse_query(QUERY_4WAY)
        planned = planner.plan(query)
        result = execute_plan(planned.plan, db)
        assert result.cardinality >= 0

    def test_planner_estimates(self, db):
        planner = PostgresStylePlanner(db)
        query = parse_query(QUERY_3WAY)
        assert planner.estimate_cardinality(query) > 0

    def test_plan_with_order_fixed_order(self, db):
        query = parse_query(QUERY_3WAY)
        plan = plan_with_order(query, ["d1", "fact", "d2"], HistogramEstimator(db))
        assert plan.leaf_tables_in_order() == ["d1", "fact", "d2"]
        for node in plan.nodes_preorder():
            if node.is_join:
                assert node.join_op is not None

    def test_optimal_order_executes_fastest_among_permutations(self, db):
        """The optimal-order plan's simulated time is minimal across orders."""
        from itertools import permutations

        query = parse_query(QUERY_3WAY)
        oracle = TrueCardinalityOracle(db)
        best_order = optimal_join_order(query, db, oracle=oracle)
        times = {}
        for perm in permutations(query.tables):
            try:
                plan = plan_with_order(query, list(perm), oracle)
            except ValueError:
                continue
            times[perm] = execute_plan(plan, db).simulated_ms
        assert times[tuple(best_order)] <= min(times.values()) * 1.35
