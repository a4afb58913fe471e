"""The per-query cardinality view: same bits as recomputing, work done once."""

import dataclasses
import gc
import itertools
import random
from collections import Counter

import numpy as np
import pytest

import repro.optimizer.planner as planner
import repro.optimizer.selectivity as selectivity
from naive_estimator import NaiveHistogramEstimator
from repro.core import DatabaseFeaturizer, ModelConfig, MTMLFQO, is_legal_order
from repro.core.serializer import plan_signature, query_signature
from repro.datagen import generate_database
from repro.engine.plan import left_deep_plan
from repro.optimizer import (
    HistogramEstimator,
    TrueCardinalityOracle,
    dp_join_enumeration,
    greedy_join_order,
    optimal_plan,
    plan_with_order,
    plan_with_orders,
)
from repro.sql import Query, parse_query
from repro.storage import Database, JoinRelation, Table
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)
SEEDS = range(6)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=5, num_tables=8, row_range=(80, 300), attr_range=(2, 3))


def queries(db, seed, count=6, min_tables=2, max_tables=8):
    generator = WorkloadGenerator(
        db, WorkloadConfig(min_tables=min_tables, max_tables=max_tables, seed=seed)
    )
    return [generator.generate_query() for _ in range(count)]


def legal_orders(query, rng, cap=150):
    """Every legal order of a small query; ``cap`` random ones of a large one."""
    if query.num_tables <= 5:
        orders = []
        for perm in itertools.permutations(query.tables):
            try:
                left_deep_plan(query, list(perm))
            except ValueError:
                continue
            orders.append(list(perm))
        return orders
    orders = set()
    for _ in range(cap):
        order = [rng.choice(query.tables)]
        while len(order) < query.num_tables:
            frontier = [
                t for t in query.tables
                if t not in order and query.joins_between(set(order), {t})
            ]
            order.append(rng.choice(frontier))
        orders.add(tuple(order))
    return [list(order) for order in sorted(orders)]


def annotations(plan):
    return [(n.scan_op, n.join_op, n.estimated_cost) for n in plan.nodes_preorder()]


class CountingEstimator(HistogramEstimator):
    calls = Counter()

    def scan_selectivity(self, conjunction):
        self.calls["scan"] += 1
        return super().scan_selectivity(conjunction)

    def join_selectivity(self, join):
        self.calls["join"] += 1
        return super().join_selectivity(join)


@pytest.fixture
def counting(monkeypatch):
    """``HistogramEstimator`` replaced by a counting subclass, also for
    the code that builds its own (the rerank)."""
    CountingEstimator.calls = Counter()
    monkeypatch.setattr(selectivity, "HistogramEstimator", CountingEstimator)
    return CountingEstimator.calls


class TestSameBitsAsRecomputing:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_estimate_is_a_function_of_the_subset_value(self, db, seed):
        """Equal subsets reached through different join orders are
        different frozenset objects that may iterate differently; the
        un-memoised estimate must not notice."""
        estimator = HistogramEstimator(db)
        rng = random.Random(seed)
        for query in queries(db, seed, min_tables=4):
            seen = {}
            for order in legal_orders(query, rng, cap=40):
                for node in left_deep_plan(query, order).nodes_postorder():
                    rows = estimator.estimate(query, node.tables)
                    assert seen.setdefault(node.tables, rows) == rows

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_order_through_one_view_plans_like_the_reference(self, db, seed):
        estimator, naive = HistogramEstimator(db), NaiveHistogramEstimator(db)
        rng = random.Random(seed)
        for query in queries(db, seed):
            view = estimator.for_query(query)
            orders = legal_orders(query, rng)
            assert orders
            for order in orders:
                shared = plan_with_order(query, order, view)
                unbound = plan_with_order(query, order, estimator)
                reference = plan_with_order(query, order, naive)
                assert annotations(shared) == annotations(unbound) == annotations(reference)
                assert plan_signature(shared) == plan_signature(reference)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_enumerators_return_the_reference_plan(self, db, seed):
        estimator, naive = HistogramEstimator(db), NaiveHistogramEstimator(db)
        for query in queries(db, seed):
            enumerations = [
                lambda e: dp_join_enumeration(query, e),
                lambda e: dp_join_enumeration(query, e, left_deep_only=False),
                lambda e: greedy_join_order(query, e),
            ]
            for enumerate_with in enumerations:
                planned, reference = enumerate_with(estimator), enumerate_with(naive)
                assert plan_signature(planned.plan) == plan_signature(reference.plan)
                assert annotations(planned.plan) == annotations(reference.plan)
                assert planned.cost == reference.cost
                assert planned.cardinalities == reference.cardinalities

    def test_batched_rerank_equals_per_query(self, db):
        featurizer = DatabaseFeaturizer(db, SMALL)
        featurizer.train_encoders(queries_per_table=3, epochs=1)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = QueryLabeler(db).label_many(queries(db, 11, count=40, min_tables=3))[:16]
        assert len(items) == 16
        batched = model.predict_join_orders(db.name, items, rerank_with_cost=True)
        single = [
            model.predict_join_order(db.name, item, rerank_with_cost=True) for item in items
        ]
        assert batched == single


class TestPrefixPlanner:
    """``plan_with_orders`` plans each distinct prefix once; per order it
    is ``plan_with_order``, its one-order case."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_each_order_plans_like_plan_with_order(self, db, seed):
        estimator = HistogramEstimator(db)
        rng = random.Random(seed)
        for query in queries(db, seed):
            orders = legal_orders(query, rng, cap=40)
            shared = plan_with_orders(query, orders, estimator.for_query(query))
            for order, plan in zip(orders, shared, strict=True):
                alone = plan_with_order(query, order, estimator)
                assert plan.leaf_tables_in_order() == order
                assert plan_signature(plan) == plan_signature(alone)
                assert annotations(plan) == annotations(alone)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_join_predicates_are_joins_between(self, db, seed):
        """The planner indexes a query's joins once per call; each join
        node still carries ``query.joins_between(prefix, {table})``, in
        that order and orientation, and every prefix of the call shares
        one oriented relation per join."""
        rng = random.Random(seed)
        for query in queries(db, seed, min_tables=3):
            orders = legal_orders(query, rng, cap=40)
            relations = {}
            for plan in plan_with_orders(query, orders, HistogramEstimator(db)):
                for node in plan.nodes_postorder():
                    if node.is_join:
                        expected = query.joins_between(set(node.left.tables), {node.right.table})
                        assert node.join_predicates == expected
                        for join in node.join_predicates:
                            assert relations.setdefault(join, join) is join

    def test_shared_prefixes_are_one_node(self, db):
        query = next(q for q in queries(db, 2, count=20) if q.num_tables >= 5)
        orders = legal_orders(query, random.Random(0), cap=60)
        plans = plan_with_orders(query, orders, HistogramEstimator(db))
        nodes = {}  # ordered prefix -> the node planned for it
        for order, plan in zip(orders, plans):
            node = plan
            for length in range(len(order), 1, -1):
                assert nodes.setdefault(tuple(order[:length]), node) is node
                assert nodes.setdefault(("scan", order[length - 1]), node.right) is node.right
                node = node.left
            assert nodes.setdefault(("scan", order[0]), node) is node
        distinct = {tuple(order[:length]) for order in orders for length in range(2, len(order) + 1)}
        assert len({id(node) for node in nodes.values()}) == len(distinct) + query.num_tables

    def test_an_illegal_order_is_none_here_and_raises_alone(self, db):
        estimator = HistogramEstimator(db)
        query = next(q for q in queries(db, 1, count=20) if q.num_tables >= 3)
        adjacency = query.adjacency_matrix()
        illegal = next(
            [query.tables[p] for p in perm]
            for perm in itertools.permutations(range(query.num_tables))
            if not is_legal_order(list(perm), adjacency)
        )
        legal = legal_orders(query, random.Random(1))[0]
        view = estimator.for_query(query)
        assert plan_with_orders(query, [illegal, legal, illegal], view)[::2] == [None, None]
        with pytest.raises(ValueError, match="illegal join order"):
            plan_with_order(query, illegal, estimator)
        with pytest.raises(ValueError, match="does not cover"):
            plan_with_orders(query, [legal[:-1]], view)


class TestWorkIsDoneOnce:
    def test_rerank_asks_for_each_selectivity_once(self, db, counting):
        featurizer = DatabaseFeaturizer(db, SMALL)
        featurizer.train_encoders(queries_per_table=3, epochs=1)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        item = next(
            item
            for item in QueryLabeler(db).label_many(queries(db, 3, count=20, min_tables=6))
            if item.query.num_tables >= 6
        )
        candidates = [
            c
            for c in model.beam_candidates_batch(db.name, [item], beam_width=3, enforce_legality=True)[0]
            if c.legal
        ]
        assert len(candidates) == 3
        counting.clear()
        model._rerank_by_cost_batch(db.name, [(0, item, candidates)])
        assert counting == {"scan": item.query.num_tables, "join": len(item.query.joins)}

    @pytest.mark.parametrize("left_deep_only", [True, False])
    def test_dp_asks_for_each_selectivity_once(self, db, counting, left_deep_only):
        query = max(queries(db, 4, count=10), key=lambda q: q.num_tables)
        assert query.num_tables >= 6
        dp_join_enumeration(query, CountingEstimator(db), left_deep_only=left_deep_only)
        assert counting == {"scan": query.num_tables, "join": len(query.joins)}

    def test_a_view_refuses_another_query(self, db):
        first, second = queries(db, 5, count=2)
        view = HistogramEstimator(db).for_query(first)
        assert view.for_query(first) is view
        with pytest.raises(RuntimeError, match="bound to the query"):
            view.for_query(second)
        with pytest.raises(RuntimeError, match="bound to the query"):
            view.estimate(second, frozenset(second.tables[:1]))
        with pytest.raises(RuntimeError, match="bound to the query"):
            plan_with_order(second, list(second.tables), view)
        assert not view.cardinalities


class TestOracleView:
    WIDE = "SELECT COUNT(*) FROM fact, dim WHERE fact.dim_id = dim.id AND dim.a <= 8"
    NARROW = "SELECT COUNT(*) FROM fact, dim WHERE fact.dim_id = dim.id AND dim.a <= 0"

    @pytest.fixture(scope="class")
    def star(self):
        rng = np.random.default_rng(7)
        dim = Table.from_dict("dim", {"id": np.arange(100), "a": np.arange(100) % 10}, primary_key="id")
        fact = Table.from_dict(
            "fact", {"id": np.arange(500), "dim_id": rng.integers(0, 100, 500)}, primary_key="id"
        )
        database = Database("star", [fact, dim])
        database.add_join(JoinRelation("fact", "dim_id", "dim", "id"))
        database.analyze()
        return database

    def test_queries_at_one_address_get_their_own_cardinalities(self, star):
        oracle = TrueCardinalityOracle(star)
        subset = frozenset(["dim"])
        wide, narrow = parse_query(self.WIDE), parse_query(self.NARROW)
        first = Query(wide.tables, wide.joins, wide.filters)
        assert oracle.estimate(first, subset) == 90
        address = id(first)
        del first  # refcount 0: collected here
        # CPython hands the freed block to the next object of that size,
        # so the second query usually lives where the first did — the
        # case an id()-keyed memo answers with the first query's rows.
        kept = []
        for _ in range(64):
            kept.append(Query(narrow.tables, narrow.joins, narrow.filters))
            if id(kept[-1]) == address:
                break
        assert oracle.estimate(kept[-1], subset) == 10

    def test_second_dp_on_the_same_query_executes_nothing(self, db):
        query = next(q for q in queries(db, 7, count=20) if q.num_tables == 4)
        oracle = TrueCardinalityOracle(db)
        left_deep = optimal_plan(query, db, left_deep_only=True, oracle=oracle)
        executed = oracle.executions
        assert executed > 0
        bushy = optimal_plan(query, db, left_deep_only=False, oracle=oracle)
        assert oracle.executions == executed
        assert bushy.cost <= left_deep.cost
        oracle.clear_cache()
        optimal_plan(query, db, oracle=oracle)
        assert oracle.executions == 2 * executed


def probe_keys(featurizer) -> set:
    return {key for key in featurizer.encoding_cache._entries if key[0] == "probe"}


def decode(model, db, items):
    """The served orders and the bytes of every probe root cost the
    rerank's CostEst forwards produced, in forward order."""
    head, roots = model.cost_head, []

    def recording(shared):
        out = head(shared)
        roots.append(out.data[:, 0].copy())
        return out

    model.cost_head = recording
    try:
        orders = model.predict_join_orders(db.name, items)
    finally:
        model.cost_head = head
    assert roots, "no query was reranked"
    return orders, np.concatenate(roots).tobytes()


@pytest.fixture
def planned(monkeypatch):
    """The plans of every ``plan_with_orders`` call the test makes."""
    calls = []
    original = planner.plan_with_orders

    def spy(*args, **kwargs):
        plans = original(*args, **kwargs)
        calls.append(plans)
        return plans

    monkeypatch.setattr(planner, "plan_with_orders", spy)
    return calls


class TestProbeLookup:
    """A rerank probe's encoding is keyed by (query, order): a query
    decoded again, by any model holding the featurizer, plans nothing."""

    @pytest.fixture(scope="class")
    def served(self, db):
        featurizer = DatabaseFeaturizer(db, SMALL)
        featurizer.train_encoders(queries_per_table=3, epochs=1)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = QueryLabeler(db).label_many(queries(db, 11, count=12, min_tables=4))
        assert len(items) >= 8
        return model, featurizer, items

    def test_a_second_decode_plans_and_estimates_nothing(self, db, served, counting, planned):
        model, _, items = served
        model.clear_cache()
        cold = decode(model, db, items)
        assert planned and counting
        planned.clear()
        counting.clear()
        assert decode(model, db, items) == cold
        assert planned == [] and not counting

    def test_a_twin_with_reordered_joins_misses_and_reranks_as_cold(self, db, served, planned):
        model, featurizer, items = served
        item = next(item for item in items if len(item.query.joins) >= 2)
        query = item.query
        twin = dataclasses.replace(
            item, query=Query(list(query.tables), list(reversed(query.joins)), dict(query.filters))
        )
        assert query_signature(twin.query) == query_signature(query)
        model.clear_cache()
        cold_item = decode(model, db, [item])
        model.clear_cache()
        cold_twin = decode(model, db, [twin])
        model.clear_cache()
        assert decode(model, db, [item]) == cold_item
        first = probe_keys(featurizer)
        planned.clear()
        assert decode(model, db, [twin]) == cold_twin
        added = probe_keys(featurizer) - first
        assert len(added) == sum(plan is not None for plans in planned for plan in plans) > 0
        planned.clear()
        assert decode(model, db, [item]) == cold_item and planned == []

    def test_entries_outlive_a_version_and_serve_a_clone(self, db, served, planned):
        model, featurizer, items = served
        model.clear_cache()
        cold = decode(model, db, items)
        kept = probe_keys(featurizer)
        model.mark_updated()
        assert probe_keys(featurizer) == kept
        planned.clear()
        assert decode(model.clone_for_inference(), db, items) == cold
        assert planned == []
        model.attach_featurizer(db.name, featurizer)
        assert not probe_keys(featurizer)

    def test_a_cold_decode_adds_one_entry_per_planned_probe(self, db, served, planned):
        model, featurizer, items = served
        model.clear_cache()
        decode(model, db, items)
        probes = sum(plan is not None for plans in planned for plan in plans)
        assert len(probe_keys(featurizer)) == probes > 0
        # Nothing is stored under a plan signature but the items' own plans.
        others = set(featurizer.encoding_cache._entries) - probe_keys(featurizer)
        assert others == {plan_signature(item.plan) for item in items}
