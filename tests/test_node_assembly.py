"""Node assembly: encodings reference the (F) rows they read.

An ``EncodedQuery`` holds each node's content row as the very array the
featurizer's ``node_cache`` stores, its structural features as one small
read-only array, and its tree-position rows as the one array interned
for its plan shape; ``forward_batch`` gathers them into the Trans_Share
inputs.  These tests hold that gather to the dense per-plan layout it
replaced (``tests/dense_assembly_reference.py``) byte for byte, pin the
sharing, and bound the bytes a cached encoding keeps.
"""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest

import repro.nn as nn
from dense_assembly_reference import dense_batch, dense_encoding
from repro.core import MTMLFQO, ModelConfig
from repro.core.model import NODE_EXTRA_FEATURES
from repro.core.encoders import DatabaseFeaturizer
from repro.core.serializer import serialize_plan
from repro.datagen import generate_database
from repro.engine.plan import JoinOp, ScanOp, join_node, scan_node
from repro.optimizer import plan_with_orders
from repro.optimizer.selectivity import HistogramEstimator
from repro.sql import Conjunction, InPredicate, Query
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator
from repro.workload.labeler import LabeledQuery

# The ledger's widths: d_model 48 and the default 16 structural features.
CONFIG = ModelConfig(d_model=48, num_heads=4, encoder_layers=1, shared_layers=1, decoder_layers=1)

# Bytes the encoding cache keeps per entry over the rerank probes of
# PROBE_QUERIES queries, measured at 2,515 (CPython 3.11, numpy 2.4); the
# dense layout kept 7,262.
BYTES_PER_ENCODING_BOUND = 3_000
PROBE_QUERIES = 8


def as_item(query: Query, plan) -> LabeledQuery:
    n = len(plan.nodes_preorder())
    return LabeledQuery(query=query, plan=plan, node_cardinalities=[0] * n, node_costs=[0.0] * n, total_time_ms=0.0)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=1, num_tables=6, row_range=(80, 300), attr_range=(2, 3))


@pytest.fixture(scope="module")
def queries(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=5, seed=0))
    return generator.generate(24)


@pytest.fixture(scope="module")
def left_deep(db, queries):
    return QueryLabeler(db).label_many(queries)


def bushy_plan(query: Query, scan_ops: itertools.cycle, join_ops: itertools.cycle):
    """A bushy plan of ``query``: two disjoint joined pairs joined to
    each other, then the other tables one at a time; None when no two
    disjoint pairs are joined."""

    def scan(table):
        return scan_node(table, query.filter_for(table), next(scan_ops))

    def join(left, right):
        return join_node(left, right, query.joins_between(set(left.tables), set(right.tables)), next(join_ops))

    for first, second in itertools.combinations(query.joins, 2):
        pairs = {first.left, first.right}, {second.left, second.right}
        if pairs[0] & pairs[1] or not query.joins_between(*pairs):
            continue
        plan = join(join(scan(first.left), scan(first.right)), join(scan(second.left), scan(second.right)))
        rest = [table for table in query.tables if table not in plan.tables]
        while rest:
            table = next(t for t in rest if query.joins_between(set(plan.tables), {t}))
            plan = join(plan, scan(table))
            rest.remove(table)
        return plan
    return None


@pytest.fixture(scope="module")
def bushy(queries):
    scan_ops, join_ops = itertools.cycle(ScanOp), itertools.cycle(JoinOp)
    plans = [(query, bushy_plan(query, scan_ops, join_ops)) for query in queries]
    items = [as_item(query, plan) for query, plan in plans if plan is not None]
    assert len(items) >= 3 and not any(item.plan.is_left_deep() for item in items)
    return items


def rerank_probes(db, queries, per_query: int = 3) -> list[LabeledQuery]:
    """Up to ``per_query`` legal left-deep plans of each query of three
    or more tables, built as the cost rerank builds its probes: one
    ``plan_with_orders`` call a query, so its plans share scans and
    prefixes."""
    estimator = HistogramEstimator(db)
    probes = []
    for query in queries:
        if query.num_tables < 3:
            continue
        orders = [list(order) for order in itertools.islice(itertools.permutations(query.tables), 24)]
        plans = [plan for plan in plan_with_orders(query, orders, estimator.for_query(query)) if plan is not None]
        probes.extend(as_item(query, plan) for plan in plans[:per_query])
    return probes


@pytest.fixture(scope="module")
def probes(db, queries):
    return rerank_probes(db, queries)


@pytest.fixture
def model(db):
    model = MTMLFQO(CONFIG)
    model.attach_featurizer(db.name, DatabaseFeaturizer(db, CONFIG))
    return model


def forward_inputs(model, db_name, items, monkeypatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``forward_batch`` hands Trans_Share: (batch, trees, pad_mask)."""
    seen = []
    forward = model.shared.forward

    def spy(node_features, tree_encodings, key_padding_mask=None):
        seen.append((np.array(node_features), np.array(tree_encodings), np.array(key_padding_mask)))
        return forward(node_features, tree_encodings, key_padding_mask=key_padding_mask)

    with monkeypatch.context() as patch:
        patch.setattr(model.shared, "forward", spy)
        with nn.no_grad():
            _, pad_mask, _ = model.forward_batch(db_name, items)
    (inputs,) = seen
    np.testing.assert_array_equal(inputs[2], pad_mask)
    return inputs


def assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def assert_matches_dense(model, db_name, items, monkeypatch) -> np.ndarray:
    inputs = forward_inputs(model, db_name, items, monkeypatch)
    for actual, expected in zip(inputs, dense_batch(model, db_name, items)):
        assert_same_bytes(actual, expected)
    return inputs[2]


class TestForwardBatchMatchesDense:
    def test_left_deep_padded_batches_cold_and_warm(self, db, model, left_deep, monkeypatch):
        assert len({item.num_nodes for item in left_deep}) > 1
        for items in (left_deep, left_deep[:1], left_deep[::-1]):
            model.clear_cache()
            pad_mask = assert_matches_dense(model, db.name, items, monkeypatch)  # cold
            assert_matches_dense(model, db.name, items, monkeypatch)  # warm
        assert pad_mask.any()

    def test_bushy_and_mixed_batches(self, db, model, left_deep, bushy, monkeypatch):
        assert_matches_dense(model, db.name, bushy, monkeypatch)
        mixed = [item for pair in zip(bushy, left_deep) for item in pair]
        assert_matches_dense(model, db.name, mixed, monkeypatch)

    def test_probes_sharing_nodes(self, db, model, probes, monkeypatch):
        model.clear_cache()
        assert_matches_dense(model, db.name, probes, monkeypatch)
        assert_matches_dense(model, db.name, probes[1::2] + probes[::2], monkeypatch)

    def test_cloned_models(self, db, model, left_deep, probes, monkeypatch):
        items = left_deep[:6] + probes[:6]
        assert_matches_dense(model, db.name, items, monkeypatch)
        clone = model.clone_for_inference()
        assert_matches_dense(clone, db.name, items, monkeypatch)  # the source's entries
        clone.clear_cache()
        assert_matches_dense(clone, db.name, items, monkeypatch)  # cold, on the clone
        assert_matches_dense(model, db.name, items, monkeypatch)  # the clone's entries

    def test_dense_views_equal_the_dense_layout(self, db, model, left_deep, bushy):
        featurizer = model.featurizer_for(db.name)
        for item in left_deep + bushy:
            encoding = model.encode_query(db.name, item)
            features, tree_enc, leaf_positions = dense_encoding(model, featurizer, item)
            assert_same_bytes(encoding.features, features)
            assert_same_bytes(encoding.tree_encodings, tree_enc)
            assert encoding.leaf_positions == leaf_positions
            assert encoding.num_nodes == item.num_nodes


class TestEncodingsShareRows:
    def test_content_rows_are_the_node_cache_arrays(self, db, model, probes):
        featurizer = model.featurizer_for(db.name)
        encodings = [model.encode_query(db.name, probe) for probe in probes]
        rows = list(featurizer.node_cache._entries.values())
        assert all(id(row) in {id(r) for r in rows} for encoding in encodings for row in encoding.contents)
        # A row owns its d_model floats: no view keeping a whole encoder output alive.
        assert all(row.base is None and row.shape == (1, CONFIG.d_model) for row in rows)
        # Probes of one query read each of its scans through one row.
        first, second = [e for e, p in zip(encodings, probes) if p.query is probes[0].query][:2]
        for table in probes[0].query.tables:
            assert first.contents[first.leaf_positions[table]] is second.contents[second.leaf_positions[table]]

    def test_plans_of_one_shape_share_one_tree_array(self, db, model, left_deep, bushy):
        by_shape: dict[tuple, object] = {}
        for item in left_deep + bushy:
            _, positions = serialize_plan(item.plan)
            shape = tuple(position.path for position in positions)
            tree = model.encode_query(db.name, item).tree_encodings
            assert by_shape.setdefault(shape, tree) is tree
            for row, position in zip(tree, positions):
                assert_same_bytes(row, nn.tree_path_encoding(position, CONFIG.d_model))
        assert len(by_shape) < len(left_deep + bushy)
        assert len({id(tree) for tree in by_shape.values()}) == len(by_shape)

    def test_every_stored_array_is_read_only(self, db, model, left_deep, bushy):
        for item in left_deep + bushy:
            encoding = model.encode_query(db.name, item)
            for array in (*encoding.contents, encoding.extras, encoding.tree_encodings, encoding.features):
                with pytest.raises(ValueError):
                    array[0] = 1.0

    def test_quoted_filters_get_their_own_scan_rows(self, db, model):
        """``IN ('x'', ''y')`` and ``IN ('x', 'y')`` are two filters: two
        node-cache keys, two content rows, two encodings."""
        table = next(name for name in db.table_names if db.table(name).string_columns())
        column = db.table(table).string_columns()[0]
        featurizer = model.featurizer_for(db.name)
        model.clear_cache()
        encodings = []
        for values in (("x', 'y",), ("x", "y")):
            conjunction = Conjunction(table, (InPredicate(table, column, values),))
            query = Query(tables=[table], joins=[], filters={table: conjunction})
            encodings.append(model.encode_query(db.name, as_item(query, scan_node(table, conjunction))))
        assert (len(featurizer.node_cache), len(featurizer.encoding_cache)) == (2, 2)
        assert encodings[0].contents[0] is not encodings[1].contents[0]


class TestNodeExtraWidth:
    """``node_extra_dim`` holds the NODE_EXTRA_FEATURES raw features."""

    def test_a_narrower_row_is_refused_at_config_time(self):
        with pytest.raises(ValueError, match=rf"node_extra_dim must be >= {NODE_EXTRA_FEATURES} \(.*\), got 8"):
            ModelConfig(node_extra_dim=8)

    def test_the_narrowest_accepted_row_decodes(self, db, left_deep):
        config = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1,
                             decoder_layers=1, node_extra_dim=NODE_EXTRA_FEATURES)
        model = MTMLFQO(config)
        model.attach_featurizer(db.name, DatabaseFeaturizer(db, config))
        orders = model.predict_join_orders(db.name, left_deep[:4])
        assert [sorted(order) for order in orders] == [sorted(item.query.tables) for item in left_deep[:4]]

    def test_no_feature_is_written_past_the_count(self, db, model, left_deep, bushy):
        for item in left_deep + bushy:
            extras = model.encode_query(db.name, item).extras
            assert extras.shape[1] == CONFIG.node_extra_dim > NODE_EXTRA_FEATURES
            assert not extras[:, NODE_EXTRA_FEATURES:].any()
            assert extras[:, NODE_EXTRA_FEATURES - 1].any() or len(item.query.tables) == 1


def bytes_kept_per_encoding(model, db_name, items) -> float:
    """Traced bytes the encoding cache keeps per entry for ``items``,
    with their node contents, tree layouts and plan signatures already
    in place: what a cached encoding adds, not what it reads."""
    featurizer = model.featurizer_for(db_name)
    for item in items:
        model.encode_query(db_name, item)
    featurizer.encoding_cache.clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for item in items:
            model.encode_query(db_name, item)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / len(featurizer.encoding_cache)


def test_bytes_kept_per_cached_encoding(db, model, queries):
    """The memory gate: a cached encoding keeps its structural features,
    a tuple of references and its leaf map — not copies of the rows it
    reads.  The dense layout (every node's content, features and
    tree-position row copied into two arrays a plan) kept ~7.3 kB an
    entry over these probes."""
    probes = rerank_probes(db, queries[:PROBE_QUERIES * 2])[: PROBE_QUERIES * 3]
    assert len(probes) == PROBE_QUERIES * 3
    per_entry = bytes_kept_per_encoding(model, db.name, probes)
    assert per_entry <= BYTES_PER_ENCODING_BOUND, f"{per_entry:.0f} bytes per cached encoding"
