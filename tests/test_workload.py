"""Tests for workload generation, labeling and dataset splitting."""

import functools
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generator_reference import ReferenceGenerator, reference_single_table_queries
from helpers import spanning_join_order
from repro.core.serializer import query_signature
from repro.datagen import generate_database
from repro.engine import execute_plan
from repro.sql import LikePredicate, Query
from repro.engine import ExecutionLimitError
from repro.optimizer import TrueCardinalityOracle, optimal_join_order
from repro.workload.labeler import SKIP_TOO_MANY_TABLES
from repro.workload import (
    QueryDataset,
    QueryLabeler,
    WorkloadConfig,
    WorkloadGenerator,
    generate_single_table_queries,
    split_dataset,
)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=3, num_tables=6, row_range=(80, 400), attr_range=(2, 4))


@pytest.fixture(scope="module")
def generator(db):
    return WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=0))


class TestGenerator:
    def test_queries_are_connected(self, generator):
        for query in generator.generate(30):
            assert query.is_connected(), query.to_sql()

    def test_query_table_counts_in_range(self, generator):
        for query in generator.generate(30):
            assert 2 <= query.num_tables <= 4

    def test_joins_match_schema(self, db, generator):
        for query in generator.generate(20):
            for join in query.joins:
                assert db.join_schema.relation_between(join.left, join.right) is not None

    def test_filters_never_touch_key_columns(self, db, generator):
        for query in generator.generate(30):
            for table, conj in query.filters.items():
                pk = db.table(table).primary_key
                for predicate in conj.predicates:
                    assert predicate.column_names()[0] != pk
                    assert not predicate.column_names()[0].startswith("fk_")

    def test_queries_executable(self, db, generator):
        from repro.engine import left_deep_plan
        for query in generator.generate(10):
            order = spanning_join_order(db.join_schema, query.tables, start=query.tables[0])
            plan = left_deep_plan(query, order)
            result = execute_plan(plan, db)
            assert result.cardinality >= 0

    def test_determinism(self, db):
        a = WorkloadGenerator(db, WorkloadConfig(seed=42, max_tables=3)).generate(5)
        b = WorkloadGenerator(db, WorkloadConfig(seed=42, max_tables=3)).generate(5)
        assert [q.to_sql() for q in a] == [q.to_sql() for q in b]

    def test_like_predicates_appear(self, db):
        config = WorkloadConfig(seed=1, min_tables=1, max_tables=2, like_probability=0.9, filter_probability=1.0)
        generator = WorkloadGenerator(db, config)
        queries = generator.generate(50)
        likes = [
            p
            for q in queries
            for conj in q.filters.values()
            for p in conj.predicates
            if isinstance(p, LikePredicate)
        ]
        # string columns may be rare in a given schema; require at least some
        string_columns = any(db.table(t).string_columns() for t in db.table_names)
        if string_columns:
            assert likes

    def test_single_table_queries(self, db):
        table = db.table_names[0]
        queries = generate_single_table_queries(db, table, 10, seed=0)
        assert len(queries) == 10
        for query in queries:
            assert query.tables == [table]
            assert not query.joins


@functools.cache
def reference_databases():
    """A small schema and the ledger's, both with string columns."""
    return (
        generate_database(seed=3, num_tables=6, row_range=(80, 400), attr_range=(2, 4)),
        generate_database(seed=5, num_tables=8, row_range=(80, 300), attr_range=(2, 3)),
    )


def streamed(queries):
    """Each query's signature, SQL text and table names' ``repr``."""
    return [(query_signature(query), query.to_sql(), repr(query.tables)) for query in queries]


class TestGeneratorMatchesReference:
    """Drawing by index emits the stream ``rng.choice`` over the
    sequences did (``tests/generator_reference.py``), seed for seed."""

    @given(
        which=st.integers(0, 1),
        seed=st.integers(0, 2**32 - 1),
        min_tables=st.integers(1, 6),
        extra_tables=st.integers(0, 3),
        max_filters=st.integers(1, 3),
        filter_probability=st.sampled_from([0.0, 0.4, 0.7, 1.0]),
        like_probability=st.sampled_from([0.0, 0.3, 0.9]),
        in_probability=st.sampled_from([0.0, 0.2, 0.6]),
    )
    @settings(max_examples=40, deadline=None)
    def test_generate_query(
        self, which, seed, min_tables, extra_tables, max_filters,
        filter_probability, like_probability, in_probability,
    ):
        db = reference_databases()[which]
        config = WorkloadConfig(
            min_tables=min_tables,
            max_tables=min_tables + extra_tables,
            max_filters_per_table=max_filters,
            filter_probability=filter_probability,
            like_probability=like_probability,
            in_probability=in_probability,
            seed=seed,
        )
        ours, reference = WorkloadGenerator(db, config), ReferenceGenerator(db, config)
        assert streamed(ours.generate_query() for _ in range(15)) == streamed(
            reference.generate_query() for _ in range(15)
        )

    @given(which=st.integers(0, 1), seed=st.integers(0, 2**32 - 1), table_index=st.integers(0, 7))
    @settings(max_examples=25, deadline=None)
    def test_single_table_queries(self, which, seed, table_index):
        db = reference_databases()[which]
        table = db.table_names[table_index % len(db.table_names)]
        assert streamed(generate_single_table_queries(db, table, 20, seed=seed)) == streamed(
            reference_single_table_queries(db, table, 20, seed=seed)
        )


class TestLabeler:
    @pytest.fixture(scope="class")
    def labeled(self, db, generator):
        labeler = QueryLabeler(db)
        return labeler.label_many(generator.generate(15), with_optimal_order=True)

    def test_labels_present(self, labeled):
        assert labeled, "labeling dropped every query"
        for item in labeled:
            assert item.num_nodes == 2 * item.query.num_tables - 1
            assert all(c >= 0 for c in item.node_cardinalities)
            assert all(c >= 0 for c in item.node_costs)

    def test_root_labels_match_properties(self, labeled):
        for item in labeled:
            assert item.cardinality == item.node_cardinalities[0]
            assert item.cost == item.node_costs[0]

    def test_root_cost_is_total(self, labeled):
        """The root subtree cost equals the whole plan latency."""
        for item in labeled:
            assert item.cost == pytest.approx(item.total_time_ms, rel=1e-9)

    def test_costs_decrease_down_the_tree(self, labeled):
        """A subtree's cost must be >= each of its children's costs."""
        for item in labeled:
            order = item.plan.nodes_preorder()
            cost_of = {id(n): c for n, c in zip(order, item.node_costs)}
            for node in order:
                for child in node.children():
                    assert cost_of[id(node)] >= cost_of[id(child)] - 1e-9

    def test_optimal_order_legal(self, labeled, db):
        found = False
        for item in labeled:
            if item.optimal_order is None:
                continue
            found = True
            joined = {item.optimal_order[0]}
            for table in item.optimal_order[1:]:
                assert item.query.joins_between(joined, {table})
                joined.add(table)
            assert sorted(item.optimal_order) == sorted(item.query.tables)
        assert found, "no query got an optimal-order label"

    def test_card_label_matches_reexecution(self, labeled, db):
        item = labeled[0]
        result = execute_plan(item.plan, db)
        assert result.node_cardinalities == item.node_cardinalities


class TestLabelPin:
    def test_a_generated_workload_labels_to_the_pinned_digest(self, db):
        """Every label of a fixed workload is pinned byte for byte: each
        node's cardinality and cost, the total time, the optimal order
        and the skip reason (its 6-table queries are over the labeler's
        5-table bound).  A change that moves any label shows here."""
        queries = WorkloadGenerator(db, WorkloadConfig(min_tables=1, max_tables=6, seed=11)).generate(60)
        labeled = QueryLabeler(db, max_optimal_tables=5).label_many(queries, with_optimal_order=True)
        digest = hashlib.sha256()
        for item in labeled:
            digest.update(item.query.to_sql().encode())
            for value in (*item.node_cardinalities, *item.node_costs, item.total_time_ms):
                digest.update(float(value).hex().encode())
            digest.update(repr((item.optimal_order, item.extras.get("optimal_order_skip"))).encode())
        assert len(labeled) == 60
        assert sum(item.optimal_order is None for item in labeled) == 11
        assert digest.hexdigest() == "eeb80c7f28f5d892317019fbb3cd38c0627915437a75f9713f064ea7abb293cd"


class TestLabelerSkipReasons:
    """The labeler only drops queries for the two understood reasons,
    records why, and propagates everything else (the old blanket
    ``except ValueError`` silently ate planner bugs as "over limit")."""

    def test_over_limit_recorded(self, db, generator):
        labeler = QueryLabeler(db, max_intermediate_rows=1)
        queries = generator.generate(8)
        skipped = [q for q in queries if labeler.label(q) is None]
        assert skipped, "row cap of 1 skipped nothing"
        assert labeler.last_skip_reason == "over_limit"
        assert labeler.skip_counts["over_limit"] == len(skipped)

    def test_disconnected_recorded(self, db):
        disconnected = Query(tables=list(db.table_names[:2]), joins=[], filters={})
        labeler = QueryLabeler(db)
        assert labeler.label(disconnected) is None
        assert labeler.last_skip_reason == "disconnected"
        assert labeler.skip_counts == {"disconnected": 1}

    def test_planner_bug_propagates(self, db, generator, monkeypatch):
        labeler = QueryLabeler(db)
        monkeypatch.setattr(
            labeler.planner, "plan", lambda query: (_ for _ in ()).throw(ValueError("planner bug"))
        )
        with pytest.raises(ValueError, match="planner bug"):
            labeler.label(generator.generate_query())
        assert labeler.skip_counts == {}

    def test_skip_reason_resets_on_success(self, db, generator):
        labeler = QueryLabeler(db, max_intermediate_rows=1)
        query = generator.generate_query()
        assert labeler.label(query) is None
        labeler.max_intermediate_rows = None
        assert labeler.label(query) is not None
        assert labeler.last_skip_reason is None

    def test_optimal_order_skip_lands_in_extras(self, db, generator, monkeypatch):
        from repro.engine import ExecutionLimitError
        import repro.workload.labeler as labeler_module

        labeler = QueryLabeler(db)
        monkeypatch.setattr(
            labeler_module,
            "optimal_join_order",
            lambda *args, **kwargs: (_ for _ in ()).throw(ExecutionLimitError("oracle blew the cap")),
        )
        item = labeler.label(generator.generate_query(), with_optimal_order=True)
        assert item is not None
        assert item.optimal_order is None
        assert item.extras["optimal_order_skip"] == "over_limit"
        assert "oracle blew the cap" in item.extras["optimal_order_skip_detail"]

    def test_too_many_tables_skip_lands_in_extras(self, db, generator):
        labeler = QueryLabeler(db, max_optimal_tables=1)
        query = generator.generate_query()
        item = labeler.label(query, with_optimal_order=True)
        assert item is not None
        assert item.optimal_order is None
        assert item.extras["optimal_order_skip"] == SKIP_TOO_MANY_TABLES
        assert item.extras["optimal_order_skip_detail"] == (
            f"query joins {query.num_tables} tables; optimal orders are derived for at most 1"
        )
        assert labeler.last_skip_reason is None and labeler.skip_counts == {}

    def test_label_with_order_executes_served_order(self, db, generator):
        labeler = QueryLabeler(db)
        for query in generator.generate(10):
            base = labeler.label(query, with_optimal_order=False)
            if base is None:
                continue
            order = spanning_join_order(db.join_schema, query.tables, start=query.tables[0])
            item = labeler.label_with_order(query, order, with_optimal_order=False)
            assert item is not None
            assert item.plan.leaf_tables_in_order() == order
            assert item.extras["served_order"] == order
            assert item.num_nodes == 2 * query.num_tables - 1
            result = execute_plan(item.plan, db)
            assert result.node_cardinalities == item.node_cardinalities
            return
        pytest.fail("no labelable query found")

    def test_label_with_order_disconnected_skips_with_reason(self, db):
        labeler = QueryLabeler(db)
        disconnected = Query(tables=list(db.table_names[:2]), joins=[], filters={})
        assert labeler.label_with_order(disconnected, list(disconnected.tables)) is None
        assert labeler.last_skip_reason == "disconnected"

    def test_label_with_order_rejects_illegal_order(self, db, generator):
        labeler = QueryLabeler(db)
        for query in generator.generate(10):
            if query.num_tables < 3:
                continue
            order = spanning_join_order(db.join_schema, query.tables, start=query.tables[0])
            illegal = list(reversed(order))
            if query.joins_between({illegal[0]}, {illegal[1]}):
                continue  # reversal happens to stay legal; try another
            with pytest.raises(ValueError, match="illegal join order"):
                labeler.label_with_order(query, illegal)
            return
        pytest.skip("no query with an illegal reversal found")


def oracle_outcome(query, db, oracle):
    """The optimal order, or the over-limit error's text."""
    try:
        return optimal_join_order(query, db, oracle=oracle)
    except ExecutionLimitError as error:
        return "over_limit", str(error)


class TestSeededOracle:
    """The optimal order's oracle starts from the labeled plan's executed
    intermediates: the same order or skip as a fresh oracle, and none of
    the plan's subsets executes again."""

    def queries(self):
        config = WorkloadConfig(min_tables=3, max_tables=7, seed=11)
        return WorkloadGenerator(reference_databases()[1], config).generate(40)

    def test_same_order_and_no_plan_subset_executes(self, monkeypatch):
        import repro.workload.labeler as labeler_module

        oracles = []

        class Recording(TrueCardinalityOracle):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                oracles.append(self)

        monkeypatch.setattr(labeler_module, "TrueCardinalityOracle", Recording)
        db = reference_databases()[1]
        labeler = QueryLabeler(db)
        labeled = 0
        for query in self.queries():
            result = execute_plan(labeler.planner.plan(query).plan, db, max_intermediate_rows=5_000_000)
            fresh = TrueCardinalityOracle(db, max_intermediate_rows=5_000_000)
            seeded = TrueCardinalityOracle(db, max_intermediate_rows=5_000_000)
            seeded.seed(query, result.intermediates)
            expected = oracle_outcome(query, db, fresh)
            assert oracle_outcome(query, db, seeded) == expected
            # Every connected subset executes once; the plan's 2n - 1
            # node subsets are among them and none executes again.
            assert len(result.intermediates) == 2 * query.num_tables - 1
            assert seeded.executions == fresh.executions - len(result.intermediates)
            extras = {}
            assert labeler._derive_optimal(query, extras, result.intermediates) == expected
            assert extras == {}
            assert labeler.label(query, with_optimal_order=True).optimal_order == expected
            assert oracles[-1].executions == seeded.executions
            labeled += 1
        assert labeled == 40

    def test_over_limit_skips_keep_their_reason_and_detail(self):
        """A row cap the plan fits under but another subset does not: the
        seeded oracle fails on the same subset with the same text."""
        db = reference_databases()[1]
        planner = QueryLabeler(db).planner
        found = 0
        for query in self.queries():
            plan = planner.plan(query).plan
            cap = max(execute_plan(plan, db).node_cardinalities)
            fresh = oracle_outcome(query, db, TrueCardinalityOracle(db, max_intermediate_rows=cap))
            if not isinstance(fresh, tuple):
                continue
            found += 1
            labeler = QueryLabeler(db, max_intermediate_rows=cap)
            item = labeler.label(query, with_optimal_order=True)
            assert item.optimal_order is None
            assert (item.extras["optimal_order_skip"], item.extras["optimal_order_skip_detail"]) == fresh
            # Seeded from a plan run without a cap, the over-cap
            # intermediates are left out and fail as before.
            loose = execute_plan(plan, db, max_intermediate_rows=None).intermediates
            tight = TrueCardinalityOracle(db, max_intermediate_rows=cap // 2)
            tight.seed(query, loose)
            assert oracle_outcome(query, db, tight) == oracle_outcome(
                query, db, TrueCardinalityOracle(db, max_intermediate_rows=cap // 2)
            )
        assert found >= 2


class TestDataset:
    def _dataset(self, n=20):
        from repro.workload.labeler import LabeledQuery
        from repro.engine import scan_node

        items = []
        for i in range(n):
            q = Query(tables=["t"], joins=[], filters={})
            items.append(
                LabeledQuery(
                    query=q,
                    plan=scan_node("t"),
                    node_cardinalities=[i],
                    node_costs=[float(i)],
                    total_time_ms=float(i),
                    optimal_order=["t"] if i % 2 == 0 else None,
                )
            )
        return QueryDataset(items)

    def test_split_sizes(self):
        ds = self._dataset(20)
        train, val = split_dataset(ds, (0.8, 0.2), seed=0)
        assert len(train) == 16 and len(val) == 4

    def test_split_three_way(self):
        ds = self._dataset(20)
        a, b, c = split_dataset(ds, (0.85, 0.1, 0.05), seed=0)
        assert len(a) + len(b) + len(c) == 20

    def test_split_disjoint(self):
        ds = self._dataset(10)
        a, b = split_dataset(ds, (0.5, 0.5), seed=1)
        ids_a = {id(x) for x in a}
        ids_b = {id(x) for x in b}
        assert not (ids_a & ids_b)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split_dataset(self._dataset(4), (0.5, 0.2))

    def test_with_optimal_order(self):
        ds = self._dataset(10)
        assert len(ds.with_optimal_order()) == 5

    def test_batches_cover_everything(self):
        ds = self._dataset(10)
        seen = []
        for batch in ds.batches(3, rng=np.random.default_rng(0)):
            seen.extend(batch)
        assert len(seen) == 10

    def test_indexing(self):
        ds = self._dataset(5)
        assert ds[0].node_cardinalities == [0]
        assert len(ds[1:3]) == 2
