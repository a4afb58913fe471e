"""Tests for the batched decoding subsystem and the structural feature cache.

Covers the PR's acceptance criteria: batched beam decoding is
bit-identical to the sequential reference across beam widths 1-8,
``predict_join_orders`` matches per-query ``predict_join_order``,
disconnected queries fail fast with a clear error, structurally
identical plans share one cache entry, and the cache respects its
size bound.
"""

import copy

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    BeamSearchState,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    TransJO,
    beam_search_join_order,
    connected_components,
    drive_beam_states,
    plan_signature,
)
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.engine.plan import scan_node
from repro.sql import Query
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator
from repro.workload.labeler import LabeledQuery
from sequential_oracle import beam_search_join_order_sequential, beam_search_join_order_tape

pytestmark = pytest.mark.usefixtures("shape_contracts")  # tests/shape_contract.py


SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


def chain_adjacency(m: int) -> np.ndarray:
    adj = np.zeros((m, m), dtype=bool)
    for i in range(m - 1):
        adj[i, i + 1] = adj[i + 1, i] = True
    return adj


def star_adjacency(m: int) -> np.ndarray:
    adj = np.zeros((m, m), dtype=bool)
    for i in range(1, m):
        adj[0, i] = adj[i, 0] = True
    return adj


def random_connected_adjacency(m: int, rng: np.random.Generator) -> np.ndarray:
    adj = np.zeros((m, m), dtype=bool)
    order = rng.permutation(m)
    for i in range(1, m):
        a, b = order[i], order[rng.integers(0, i)]
        adj[a, b] = adj[b, a] = True
    return adj


@pytest.fixture(scope="module")
def trans_jo():
    config = ModelConfig(d_model=16, num_heads=2, decoder_layers=1)
    return TransJO(config, np.random.default_rng(0))


def random_memory(m: int, d: int = 16, seed: int = 0) -> nn.Tensor:
    return nn.Tensor(np.random.default_rng(seed).normal(size=(1, m, d)))


def assert_candidates_identical(fast, slow):
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.positions == b.positions
        assert a.log_prob == b.log_prob  # bit-identical, not approx
        assert a.legal == b.legal


class TestBatchedBeamParity:
    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_parity_across_beam_widths(self, trans_jo, beam_width):
        for m, build in ((4, chain_adjacency), (5, star_adjacency), (8, chain_adjacency)):
            memory = random_memory(m, seed=m + beam_width)
            adjacency = build(m)
            fast = beam_search_join_order(trans_jo, memory, adjacency, beam_width=beam_width)
            slow = beam_search_join_order_sequential(
                trans_jo, memory, adjacency, beam_width=beam_width
            )
            assert_candidates_identical(fast, slow)

    @pytest.mark.parametrize("beam_width", [1, 3, 8])
    def test_parity_without_legality(self, trans_jo, beam_width):
        memory = random_memory(4, seed=17)
        adjacency = chain_adjacency(4)
        fast = beam_search_join_order(
            trans_jo, memory, adjacency, beam_width=beam_width,
            enforce_legality=False, max_candidates=32,
        )
        slow = beam_search_join_order_sequential(
            trans_jo, memory, adjacency, beam_width=beam_width,
            enforce_legality=False, max_candidates=32,
        )
        assert_candidates_identical(fast, slow)

    def test_parity_on_random_graphs(self, trans_jo):
        rng = np.random.default_rng(3)
        for m in (3, 5, 7):
            adjacency = random_connected_adjacency(m, rng)
            memory = random_memory(m, seed=40 + m)
            fast = beam_search_join_order(trans_jo, memory, adjacency, beam_width=4)
            slow = beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=4)
            assert_candidates_identical(fast, slow)

    def test_step_logits_batch_matches_step_logits_exactly(self, trans_jo):
        """Uniform-length prefixes (the beam-search case) are bit-identical
        to one-prefix-at-a-time stepping — on the tape, on ndarrays, and
        across the two."""
        memory = random_memory(5, seed=9)
        prefixes = [[2, 1], [0, 3], [4, 2], [1, 0]]
        batch_memory = nn.Tensor(np.broadcast_to(memory.data, (len(prefixes),) + memory.shape[1:]).copy())
        tape = trans_jo.step_logits_batch(batch_memory, prefixes)
        assert tape.requires_grad
        with nn.no_grad():
            batched = trans_jo.step_logits_batch(batch_memory.data, prefixes)
            dense = trans_jo.step_logits_batch(batch_memory.data, np.asarray(prefixes))
        np.testing.assert_array_equal(batched, tape.data)
        np.testing.assert_array_equal(dense, tape.data)
        for row, prefix in enumerate(prefixes):
            single = trans_jo.step_logits_batch(memory, [prefix])
            np.testing.assert_array_equal(batched[row], single.data.reshape(-1))

    def test_step_logits_batch_ragged_prefixes(self, trans_jo):
        """Ragged prefixes are padded; results match to float tolerance.

        (Padding changes gemm shapes, which may pick different BLAS
        kernels — last-ulp differences are expected and acceptable here;
        the lockstep driver only ever batches uniform-length prefixes.)
        """
        memory = random_memory(5, seed=9)
        prefixes = [[], [2], [2, 1], [0, 1, 2, 3]]
        batch_memory = nn.Tensor(np.broadcast_to(memory.data, (len(prefixes),) + memory.shape[1:]).copy())
        with nn.no_grad():
            batched = trans_jo.step_logits_batch(batch_memory, prefixes)
            for row, prefix in enumerate(prefixes):
                single = trans_jo.step_logits_batch(memory, [prefix])
                np.testing.assert_allclose(
                    batched.data[row], single.data.reshape(-1), rtol=1e-12, atol=1e-12
                )

    def test_step_logits_batch_memory_padding(self, trans_jo):
        """Mixed table counts in one call: padded slots masked to -1e9,
        real slots matching an unpadded call to float tolerance."""
        small = random_memory(3, seed=21)
        large = random_memory(5, seed=22)
        m_max = 5
        batch = np.zeros((2, m_max, 16))
        batch[0, :3] = small.data[0]
        batch[1] = large.data[0]
        padding = np.zeros((2, m_max), dtype=bool)
        padding[0, 3:] = True
        prefixes = [[1], [4]]
        with nn.no_grad():
            logits = trans_jo.step_logits_batch(
                nn.Tensor(batch), prefixes, memory_padding_mask=padding
            )
            solo_small = trans_jo.step_logits_batch(small, [[1]])
            solo_large = trans_jo.step_logits_batch(large, [[4]])
        assert (logits.data[0, 3:] == -1e9).all()
        np.testing.assert_allclose(logits.data[0, :3], solo_small.data.reshape(-1), rtol=1e-9)
        np.testing.assert_allclose(logits.data[1], solo_large.data.reshape(-1), rtol=1e-9)

    def test_drive_beam_states_mixed_sizes(self, trans_jo):
        """Lockstep decode of queries with different table counts."""
        specs = [(3, star_adjacency), (6, chain_adjacency), (4, chain_adjacency)]
        memories = [random_memory(m, seed=60 + m) for m, _ in specs]
        states = [
            BeamSearchState(build(m), beam_width=3, enforce_legality=True)
            for m, build in specs
        ]
        drive_beam_states(trans_jo, memories, states)
        for (m, build), memory, state in zip(specs, memories, states):
            solo = beam_search_join_order_sequential(trans_jo, memory, build(m), beam_width=3)
            assert_candidates_identical(state.candidates(), solo)


class TestFastVsTapeParity:
    """The production decode (layer bodies on raw ndarrays, cached K/V,
    scratch buffers) must yield bit-identical candidates to the same
    bodies stepped on the autograd tape (grad enabled, K/V projected
    inline every step)."""

    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_e2e_beam_parity_across_widths(self, trans_jo, beam_width):
        for m, build in ((4, chain_adjacency), (5, star_adjacency), (8, chain_adjacency)):
            memory = random_memory(m, seed=100 + m + beam_width)
            adjacency = build(m)
            tape = beam_search_join_order_tape(trans_jo, memory, adjacency, beam_width=beam_width)
            fast = beam_search_join_order(trans_jo, memory, adjacency, beam_width=beam_width)
            assert_candidates_identical(fast, tape)

    def test_parity_with_session_scratch_arena(self, trans_jo):
        memory = random_memory(6, seed=77)
        adjacency = chain_adjacency(6)
        tape = beam_search_join_order_tape(trans_jo, memory, adjacency, beam_width=4)
        scratch = nn.ScratchArena()
        for _ in range(3):  # reused buffers must not leak state across decodes
            fast = beam_search_join_order(
                trans_jo, memory, adjacency, beam_width=4, scratch=scratch
            )
            assert_candidates_identical(fast, tape)

    def test_sequential_parity_fast_vs_tape(self, trans_jo):
        """The oracle itself, stepped on the tape vs on raw ndarrays."""
        memory = random_memory(5, seed=78)
        adjacency = star_adjacency(5)
        tape = beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=4)
        with nn.no_grad():
            fast = beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=4)
        assert_candidates_identical(fast, tape)


class TestModelForwardParity:
    def test_forward_batch_and_heads_tape_equals_no_grad(self, db, labeled, featurizer):
        """Trans_Share, both heads, the batched memory gather and the
        padded Trans_JO teacher-forced forward: grad-enabled outputs ==
        ``no_grad`` outputs, bitwise."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = labeled[:6]

        def run():
            cards, costs, _, encodings, shared = model.predict_log_nodes(db.name, items)
            # a ragged 2-/3-table pair: the padded teacher-forced batch
            tables = {i: items[i].query.tables for i in (0, 1)}
            memory = model.join_order_memory_batch(shared, encodings, tables)
            targets = np.asarray([[0, 1, 2], [1, 0, 0]])
            padding = np.asarray([[False, False, False], [False, False, True]])
            logits = model.trans_jo(memory, targets, padding)
            return shared, cards, costs, memory, logits

        tape = run()
        assert all(t.requires_grad for t in tape)
        with nn.no_grad():
            fast = run()
        for taped, raw in zip(tape, fast):
            assert not raw.requires_grad
            np.testing.assert_array_equal(raw.data, taped.data)


class TestKVCacheStillPays:
    def test_kernel_call_counts_and_scratch_buffers_are_pinned(self, db, labeled, featurizer):
        """One fixed 8-query, width-4 decode makes exactly the kernel
        calls it made before the layers were unified (values measured on
        the parent commit).  A body that silently re-projects the encoder
        memory's K/V per step, or allocates a fresh buffer per call,
        moves these numbers."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        session = model.inference_session(db.name)
        items = labeled[:8]
        assert [item.query.num_tables for item in items] == [3, 2, 2, 2, 3, 3, 2, 4]
        expected = {
            # cold: (F) encoders + Trans_Share + beam steps + cost rerank
            "cold": {"linear": 244, "matmul": 76, "layer_norm": 96, "softmax": 38,
                     "masked_fill": 12, "relu": 33, "log_softmax": 9},
            # warm feature caches: Trans_Share + beam steps + cost rerank
            "warm": {"linear": 125, "matmul": 42, "layer_norm": 45, "softmax": 21,
                     "masked_fill": 12, "relu": 16, "log_softmax": 9},
        }
        for phase in ("cold", "warm"):
            with nn.kernels.profiled() as profile:
                session.predict_join_orders(items, beam_width=4)
            calls = {name: stats[0] for name, stats in profile.ops.items()}
            assert calls == expected[phase], phase
            assert len(session.scratch) == 63


class TestKVCache:
    def test_cache_projects_once_and_reuses(self, trans_jo):
        memory = random_memory(5, seed=80)
        cache = nn.KVCache(memory)
        with nn.no_grad():
            first = trans_jo.project_memory(memory, cache)
            second = trans_jo.project_memory(memory, cache)
        assert len(cache) == 1
        assert first is second  # same projection object, not a recompute
        memory_kv, pointer_keys = first
        assert len(memory_kv) == len(trans_jo.decoder.layers)
        with nn.no_grad():
            fresh_kv, fresh_keys = trans_jo.project_memory(memory)
        np.testing.assert_array_equal(pointer_keys, fresh_keys)
        for (k, v), (fk, fv) in zip(memory_kv, fresh_kv):
            np.testing.assert_array_equal(k, fk)
            np.testing.assert_array_equal(v, fv)

    def test_cache_bound_to_other_memory_is_rejected(self, trans_jo):
        memory = random_memory(5, seed=81)
        other = random_memory(5, seed=82)
        stale = nn.KVCache(other)
        with nn.no_grad(), pytest.raises(ValueError, match="bound to a different encoder memory"):
            trans_jo.project_memory(memory, stale)

    def test_equal_values_different_object_still_rejected(self, trans_jo):
        # Binding is by object identity, not value: a hot-swapped model
        # re-encodes and produces a new memory object, so its decode can
        # never be served projections computed under the old weights.
        memory = random_memory(5, seed=83)
        clone = nn.Tensor(memory.data.copy())
        cache = nn.KVCache(memory)
        assert cache.bound_to(memory) and not cache.bound_to(clone)
        with nn.no_grad(), pytest.raises(ValueError, match="bound to a different encoder memory"):
            trans_jo.project_memory(clone, cache)

    def test_invalidate_forces_reprojection(self, trans_jo):
        memory = random_memory(4, seed=84)
        cache = nn.KVCache(memory)
        with nn.no_grad():
            first = trans_jo.project_memory(memory, cache)
            cache.invalidate()
            assert len(cache) == 0
            second = trans_jo.project_memory(memory, cache)
        assert first is not second  # recomputed after invalidation
        np.testing.assert_array_equal(first[1], second[1])


class TestDisconnectedDetection:
    def test_beam_search_raises_with_components(self, trans_jo):
        adjacency = np.zeros((4, 4), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[2, 3] = adjacency[3, 2] = True
        with pytest.raises(ValueError, match="disconnected"):
            beam_search_join_order(trans_jo, random_memory(4), adjacency)
        with pytest.raises(ValueError, match="disconnected"):
            beam_search_join_order_sequential(trans_jo, random_memory(4), adjacency)

    def test_unconstrained_mode_does_not_raise(self, trans_jo):
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        candidates = beam_search_join_order(
            trans_jo, random_memory(3, seed=2), adjacency, enforce_legality=False
        )
        assert candidates
        assert all(not c.legal for c in candidates)

    def test_connected_components(self):
        adjacency = np.zeros((5, 5), dtype=bool)
        adjacency[0, 1] = adjacency[1, 0] = True
        adjacency[3, 4] = adjacency[4, 3] = True
        assert connected_components(adjacency) == [[0, 1], [2], [3, 4]]

    def test_model_names_components(self):
        """predict_join_order on a disconnected query names the tables."""
        model = MTMLFQO(SMALL)
        query = Query(tables=["alpha", "beta"], joins=[], filters={})
        labeled = LabeledQuery(
            query=query,
            plan=scan_node("alpha"),
            node_cardinalities=[1],
            node_costs=[1.0],
            total_time_ms=0.0,
        )
        with pytest.raises(ValueError, match="alpha") as excinfo:
            model.predict_join_order("anydb", labeled)
        assert "beta" in str(excinfo.value)
        assert "disconnected" in str(excinfo.value)

    def test_beam_candidates_with_legality_raises(self):
        """Legality-enforcing candidate collection rejects disconnection too."""
        model = MTMLFQO(SMALL)
        query = Query(tables=["alpha", "beta"], joins=[], filters={})
        labeled = LabeledQuery(
            query=query,
            plan=scan_node("alpha"),
            node_cardinalities=[1],
            node_costs=[1.0],
            total_time_ms=0.0,
        )
        with pytest.raises(ValueError, match="disconnected"):
            model.beam_candidates_batch("anydb", [labeled], enforce_legality=True)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=2, num_tables=5, row_range=(60, 200), attr_range=(2, 3))


@pytest.fixture(scope="module")
def featurizer(db):
    feat = DatabaseFeaturizer(db, SMALL)
    feat.train_encoders(queries_per_table=4, epochs=2)
    return feat


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=1))
    items = QueryLabeler(db).label_many(generator.generate(24), with_optimal_order=True)
    assert len(items) >= 6
    return items


class TestPredictJoinOrdersBatch:
    def test_matches_per_query_path(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = labeled[:6]
        batched = model.predict_join_orders(db.name, items)
        single = [model.predict_join_order(db.name, item) for item in items]
        assert batched == single

    def test_chunked_encoding_matches(self, db, labeled, featurizer, monkeypatch):
        """Chunk boundaries in the batched pipeline don't change results."""
        import repro.core.model as model_module

        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = labeled[:5]
        whole = model.predict_join_orders(db.name, items)
        monkeypatch.setattr(model_module, "_INFERENCE_CHUNK", 2)
        chunked = model.predict_join_orders(db.name, items)
        assert chunked == whole

    def test_empty_batch(self, db, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        assert model.predict_join_orders(db.name, []) == []

    def test_orders_are_legal(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        for item, order in zip(labeled[:6], model.predict_join_orders(db.name, labeled[:6])):
            assert sorted(order) == sorted(item.query.tables)
            joined = {order[0]}
            for table in order[1:]:
                assert item.query.joins_between(joined, {table})
                joined.add(table)


class TestStructuralFeatureCache:
    def test_structurally_identical_queries_share_entry(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        item = labeled[0]
        twin = copy.deepcopy(item)  # distinct objects, identical structure
        assert twin is not item and twin.plan is not item.plan
        a = model.encode_query(db.name, item)
        b = model.encode_query(db.name, twin)
        assert a is b
        assert len(model._cache) == 1

    def test_signature_distinguishes_structure(self, labeled):
        signatures = {plan_signature(item.plan) for item in labeled}
        assert len(signatures) == len(labeled)

    def test_cache_respects_size_bound(self, db, labeled, featurizer):
        config = ModelConfig(**{**SMALL.__dict__, "feature_cache_size": 3})
        model = MTMLFQO(config)
        model.attach_featurizer(db.name, featurizer)
        for item in labeled[:5]:
            model.encode_query(db.name, item)
        assert len(model._cache) == 3
        # Oldest entries were evicted: re-encoding returns a new object.
        evicted = model.encode_query(db.name, labeled[0])
        again = model.encode_query(db.name, labeled[0])
        assert evicted is again  # now cached once more

    def test_rerank_probes_do_not_grow_cache_unboundedly(self, db, labeled, featurizer):
        config = ModelConfig(**{**SMALL.__dict__, "feature_cache_size": 8})
        model = MTMLFQO(config)
        model.attach_featurizer(db.name, featurizer)
        for item in labeled[:6]:
            model.predict_join_order(db.name, item)
        assert len(model._cache) <= 8

    def test_attach_featurizer_invalidates_cache(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        model.encode_query(db.name, labeled[0])
        assert len(model._cache) == 1
        model.attach_featurizer(db.name, featurizer)
        assert len(model._cache) == 0


class TestRerankFavouriteTracking:
    def _candidates(self, model, db, item):
        return model.beam_candidates_batch(
            db.name, [item], beam_width=4, enforce_legality=False
        )[0]

    def test_unplannable_favourite_falls_back_to_best_cost(self, db, labeled, featurizer):
        """When the beam favourite cannot plan, the margin protects nobody."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        item = next(i for i in labeled if i.query.num_tables >= 3)
        candidates = [c for c in self._candidates(model, db, item) if c.legal]
        assert len(candidates) >= 2
        # Make the favourite illegal (unplannable) by swapping in an
        # order that breaks connectivity if possible; otherwise fabricate
        # one from a reversed non-adjacent arrangement.
        from repro.core import BeamCandidate, is_legal_order

        adjacency = item.query.adjacency_matrix()
        m = item.query.num_tables
        bad = None
        import itertools

        for perm in itertools.permutations(range(m)):
            if not is_legal_order(list(perm), adjacency):
                bad = list(perm)
                break
        if bad is None:
            pytest.skip("query graph is complete; every order is plannable")
        rigged = [BeamCandidate(positions=bad, log_prob=0.0, legal=False)] + candidates
        result = model._rerank_by_cost_batch(db.name, [(0, item, rigged)])[0]
        # The result must be one of the plannable candidates, specifically
        # the one the cost head scores lowest (no margin shield applies).
        orders = [c.tables(item.query.tables) for c in candidates]
        assert result in orders

    def test_plannable_favourite_keeps_margin_protection(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        item = next(i for i in labeled if i.query.num_tables >= 3)
        candidates = [c for c in self._candidates(model, db, item) if c.legal]
        assert candidates
        result = model._rerank_by_cost_batch(db.name, [(0, item, candidates)], margin=1e9)[0]
        # With an enormous margin no challenger can win: favourite stays.
        assert result == candidates[0].tables(item.query.tables)


class TestWeightedEpochLoss:
    def test_epoch_loss_weighted_by_batch_size(self):
        """Ragged batches (database-boundary splits) weight by example count."""
        model = MTMLFQO(SMALL)
        trainer = JointTrainer(model)
        seen: list[tuple[str, int]] = []

        def fake_step(db_name, batch, jo_criterion):
            seen.append((db_name, len(batch)))
            return float(len(batch)), 0.0, 0.0, 0.0  # loss == batch size, easy to audit

        trainer._step = fake_step
        # 5 "a" + 1 "b" examples with batch_size 4 produce ragged batches.
        examples = [("a", object()) for _ in range(5)] + [("b", object())]
        result = trainer.train(examples, epochs=1, batch_size=4, seed=0)
        sizes = [size for _, size in seen]
        assert sum(sizes) == 6
        expected = sum(s * s for s in sizes) / sum(sizes)
        assert result.epoch_losses[0] == pytest.approx(expected)
        # The old equal-weight mean would differ whenever batches are ragged.
        unweighted = sum(sizes) / len(sizes)
        assert result.epoch_losses[0] != pytest.approx(unweighted)
