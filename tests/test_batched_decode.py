"""Tests for the batched decoding subsystem and the structural feature cache.

Covers the PR's acceptance criteria: batched beam decoding matches the
sequential reference at decode level across beam widths 1-8,
``predict_join_orders`` matches per-query ``predict_join_order``,
disconnected queries fail fast with a clear error, structurally
identical plans share one cache entry, and the cache respects its
size bound.
"""

import copy
import itertools

import numpy as np
import pytest

import repro.core.beam as beam_module
import repro.nn as nn
from repro.core import (
    BeamSearchState,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    TransJO,
    beam_search_join_order,
    drive_beam_states,
    is_legal_order,
    plan_signature,
    sequence_log_probs,
)
from repro.core.encoders import DatabaseFeaturizer
from repro.datagen import generate_database
from repro.engine.plan import scan_node
from repro.sql import Query
from repro.storage import connected_components
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator
from repro.workload.labeler import LabeledQuery
from sequential_oracle import (
    assert_candidates_match,
    beam_search_join_order_sequential,
    beam_search_join_order_tape,
)

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
            assert_candidates_match(fast, slow)

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
        assert_candidates_match(fast, slow)

    def test_parity_on_random_graphs(self, trans_jo):
        rng = np.random.default_rng(3)
        for m in (3, 5, 7):
            adjacency = random_connected_adjacency(m, rng)
            memory = random_memory(m, seed=40 + m)
            fast = beam_search_join_order(trans_jo, memory, adjacency, beam_width=4)
            slow = beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=4)
            assert_candidates_match(fast, slow)

    def test_decode_step_tape_equals_no_grad(self, trans_jo):
        """One incremental step over a batch of beams, self-attention
        cache included, is the same function on the tape and on raw
        ndarrays: bit for bit at equal shapes."""
        memory = random_memory(5, seed=9)
        batch_memory = np.broadcast_to(memory.data, (4,) + memory.shape[1:]).copy()
        prefixes = np.asarray([[2, 1], [0, 3], [4, 2], [1, 0]])

        def run(as_operand):
            past_kv = trans_jo.decoder.empty_past_kv()
            start = np.broadcast_to(trans_jo.start_token.data, (4, 1, 16)).copy()
            tokens = [start] + [batch_memory[np.arange(4), prefixes[:, t]][:, None] for t in range(2)]
            return [
                trans_jo.decode_step(as_operand(token), as_operand(batch_memory), past_kv)
                for token in tokens
            ], past_kv

        tape, tape_kv = run(nn.Tensor)
        assert all(logits.requires_grad for logits in tape)
        with nn.no_grad():
            raw, raw_kv = run(lambda array: array)
        for taped, fast in zip(tape, raw):
            np.testing.assert_array_equal(fast, taped.data)
        for (tk, tv), (k, v) in zip(tape_kv, raw_kv):
            assert k.shape == (4, 3, 16)  # 3 rows, unsplit: the kernel splits heads
            np.testing.assert_array_equal(k, tk.data)
            np.testing.assert_array_equal(v, tv.data)

    def test_decode_step_memory_padding(self, trans_jo):
        """Mixed table counts in one step: padded slots masked to -1e9,
        real slots matching an unpadded B = 1 step to rounding."""
        small = random_memory(3, seed=21)
        large = random_memory(5, seed=22)
        with nn.no_grad():
            rows = beam_module._MemoryRows(trans_jo, [small, large])
            memory_kv, pointer_keys, padding = rows.padded(np.array([1, 1]))
            start = trans_jo.start_token.data.reshape(1, 1, -1)
            logits = trans_jo.decode_step(
                np.concatenate([start, start]), None, trans_jo.decoder.empty_past_kv(),
                padding, memory_kv, pointer_keys,
            )
            solo = [
                trans_jo.decode_step(start, memory.data, trans_jo.decoder.empty_past_kv())
                for memory in (small, large)
            ]
        assert padding.tolist() == [[False] * 3 + [True] * 2, [False] * 5]
        assert (logits[0, 3:] == -1e9).all()
        np.testing.assert_allclose(logits[0, :3], solo[0][0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(logits[1], solo[1][0], rtol=0, atol=1e-12)

    def test_decode_step_equals_teacher_forcing(self, trans_jo):
        """The model is decoded with the function it was trained with: on
        a ragged 3-8-table batch, every incremental step's logits equal
        ``TransJO.forward``'s teacher-forced logits for that prefix."""
        rng = np.random.default_rng(5)
        sizes = [3, 8, 5, 6, 4, 7]
        memories = [random_memory(m, seed=200 + m) for m in sizes]
        m_max = max(sizes)
        memory = np.zeros((len(sizes), m_max, 16))
        targets = np.zeros((len(sizes), m_max), dtype=np.int64)
        for b, (m, query_memory) in enumerate(zip(sizes, memories)):
            memory[b, :m] = query_memory.data[0]
            targets[b, :m] = rng.permutation(m)
        padding = np.arange(m_max)[None, :] >= np.asarray(sizes)[:, None]
        with nn.no_grad():
            teacher = trans_jo(memory, targets, padding)  # (B, m, m)
            rows = beam_module._MemoryRows(trans_jo, memories)
            memory_kv, pointer_keys, step_padding = rows.padded(np.ones(len(sizes), dtype=np.int64))
            np.testing.assert_array_equal(step_padding, padding)
            past_kv = trans_jo.decoder.empty_past_kv()
            tokens = np.broadcast_to(trans_jo.start_token.data, (len(sizes), 1, 16)).copy()
            for t in range(m_max):
                logits = trans_jo.decode_step(
                    tokens, None, past_kv, padding, memory_kv, pointer_keys
                )
                for b, m in enumerate(sizes):
                    if t < m:
                        np.testing.assert_allclose(logits[b], teacher[b, t], rtol=0, atol=1e-12)
                tokens = memory[np.arange(len(sizes)), targets[:, t]][:, None]

    @pytest.mark.parametrize(
        "beams", [[1, 1, 1, 1, 1], [3, 0, 2, 1, 4], [0, 2, 0, 0, 5], [2, 2, 0, 2, 0], [0, 0, 0, 3, 0]]
    )
    def test_one_pass_gather_equals_per_query_projections(self, beams):
        """The stacked memory is projected once and each beam-count key
        gathered from it: bit for bit each query's own ``project_memory``
        repeated per beam and zero padded to the live queries' largest
        table count, across mixed table counts, beam counts and a
        two-layer decoder."""
        trans_jo = TransJO(ModelConfig(d_model=16, num_heads=2, decoder_layers=2), np.random.default_rng(1))
        sizes = [3, 8, 5, 6, 3]
        memories = [random_memory(m, seed=400 + i) for i, m in enumerate(sizes)]
        beams = np.asarray(beams)
        with nn.no_grad():
            memory_kv, pointer_keys, padding = beam_module._MemoryRows(trans_jo, memories).padded(beams)
            alone = [trans_jo.project_memory(memory.data) for memory in memories]
        live = np.flatnonzero(beams)
        m_max = max(sizes[q] for q in live)

        def expected(array_of):
            blocks = []
            for q in live:
                block = np.zeros((beams[q], m_max, 16))
                block[:, : sizes[q]] = array_of(alone[q])[0]
                blocks.append(block)
            return np.concatenate(blocks)

        assert len(memory_kv) == 2
        for layer, (k, v) in enumerate(memory_kv):
            assert np.array_equal(k, expected(lambda projected: projected[0][layer][0]))
            assert np.array_equal(v, expected(lambda projected: projected[0][layer][1]))
        assert np.array_equal(pointer_keys, expected(lambda projected: projected[1]))
        slots = np.arange(m_max)[None, :] >= np.asarray(sizes)[live][:, None]
        if slots.any():
            assert np.array_equal(padding, np.repeat(slots, beams[live], axis=0))
        else:
            assert padding is None

    def test_one_padded_group_steps_as_often_as_the_largest_query(self, trans_jo, monkeypatch):
        """A 6/7/8-table chunk decodes in 8 lockstep steps (one per table
        of its largest query), not one group per table count (21)."""
        calls = []
        step = TransJO.decode_step

        def counting(self, tokens, *args, **kwargs):
            calls.append(tokens.shape[0])
            return step(self, tokens, *args, **kwargs)

        monkeypatch.setattr(TransJO, "decode_step", counting)
        specs = [(6, chain_adjacency), (7, star_adjacency), (8, chain_adjacency), (7, chain_adjacency)]
        memories = [random_memory(m, seed=300 + i) for i, (m, _) in enumerate(specs)]
        states = [BeamSearchState(build(m), beam_width=3) for m, build in specs]
        drive_beam_states(trans_jo, memories, states)
        assert len(calls) == 8
        assert calls[0] == len(specs)  # one start row per query
        assert all(state.done for state in states)
        monkeypatch.undo()
        for (m, build), memory, state in zip(specs, memories, states):
            solo = beam_search_join_order_sequential(trans_jo, memory, build(m), beam_width=3)
            assert_candidates_match(state.candidates(), solo)

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
            assert_candidates_match(state.candidates(), solo)


@pytest.fixture
def frontier_steps(monkeypatch):
    """Every multi-query ``_Frontier.advance`` call of the test, as
    ``(row -> query, log_probs)``, plus a count of one-query advances."""
    steps, solo = [], []
    advance = beam_module._Frontier.advance

    def recording(self, log_probs):
        if self.states[0]._frontier is self:
            solo.append(len(log_probs))
        else:
            steps.append((self.query.copy(), log_probs.copy()))
        return advance(self, log_probs)

    monkeypatch.setattr(beam_module._Frontier, "advance", recording)
    return steps, solo


class TestFrontier:
    """One vectorized expand-and-prune per step over every query of the
    group; ``BeamSearchState.advance`` is its one-query case."""

    SIZES = [3, 8, 5, 6, 4, 7, 8, 3]

    @pytest.mark.parametrize("enforce_legality", [True, False])
    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_group_equals_one_state_advances(self, trans_jo, frontier_steps, beam_width, enforce_legality):
        """Replaying each query's rows of the group's log-probabilities
        through its own ``BeamSearchState.advance`` gives the group's
        candidates bit for bit: the bookkeeping, not the decoder, is
        compared, so ``log_prob`` is held to ``==``."""
        steps, solo = frontier_steps
        rng = np.random.default_rng(beam_width)
        adjacencies = [random_connected_adjacency(m, rng) for m in self.SIZES]
        memories = [random_memory(m, seed=500 + i) for i, m in enumerate(self.SIZES)]

        def state(adjacency):
            return BeamSearchState(
                adjacency, beam_width=beam_width, enforce_legality=enforce_legality
            )

        group = [state(adjacency) for adjacency in adjacencies]
        drive_beam_states(trans_jo, memories, group)
        assert len(steps) == max(self.SIZES) and not solo
        for q, (adjacency, driven) in enumerate(zip(adjacencies, group)):
            alone = state(adjacency)
            for query_of_row, log_probs in steps:
                if alone.done:
                    break
                alone.advance(log_probs[query_of_row == q, : alone.m])
            assert alone.done
            assert [(c.positions, c.legal, c.log_prob) for c in driven.candidates()] == [
                (c.positions, c.legal, c.log_prob) for c in alone.candidates()
            ]
        assert len(solo) == sum(self.SIZES)  # the replays ran the same advance

    def test_a_6_7_8_table_group_advances_8_times(self, trans_jo, frontier_steps):
        steps, solo = frontier_steps
        specs = [(6, chain_adjacency), (7, star_adjacency), (8, chain_adjacency)]
        memories = [random_memory(m, seed=700 + m) for m, _ in specs]
        states = [BeamSearchState(build(m), beam_width=3) for m, build in specs]
        drive_beam_states(trans_jo, memories, states)
        assert len(steps) == 8 and not solo
        assert [len(rows) for rows, _ in steps[:2]] == [3, 9]  # one start row each, then 3 beams each
        assert all(state.done and len(state.candidates()) == 3 for state in states)

    def test_dead_end_ends_a_query_with_no_candidates(self, trans_jo):
        """A duck-typed caller driving a disconnected graph with legality
        on (the public entry points reject it up front): that query ends
        with no candidates, and its group-mate decodes as if alone."""
        disconnected = np.zeros((4, 4), dtype=bool)
        disconnected[0, 1] = disconnected[1, 0] = True
        disconnected[2, 3] = disconnected[3, 2] = True
        memories = [random_memory(4, seed=90), random_memory(5, seed=91)]
        states = [BeamSearchState(disconnected), BeamSearchState(chain_adjacency(5))]
        drive_beam_states(trans_jo, memories, states)
        assert states[0].done and states[0].candidates() == []
        solo = beam_search_join_order_sequential(trans_jo, memories[1], chain_adjacency(5))
        assert_candidates_match(states[1].candidates(), solo)
        alone = BeamSearchState(disconnected, beam_width=1)
        for _ in range(3):
            alone.advance(np.log(np.full((alone.num_active, 4), 0.25)))
        assert alone.done and alone.candidates() == []
        with pytest.raises(RuntimeError, match="finished"):
            alone.advance(np.zeros((1, 4)))


class TestLegalByConstruction:
    """With legality enforced a beam only extends to a slot its prefix
    reaches, so ``candidates()`` marks every candidate legal without
    checking; without it, each candidate is checked."""

    @pytest.mark.parametrize("beam_width", [1, 3, 8])
    def test_flag_equals_is_legal_order(self, trans_jo, beam_width):
        rng = np.random.default_rng(beam_width)
        sizes = [3, 8, 5, 6, 4, 7]
        adjacencies = [random_connected_adjacency(m, rng) for m in sizes]
        memories = [random_memory(m, seed=800 + i) for i, m in enumerate(sizes)]
        flags = {}
        for enforce in (True, False):
            states = [
                BeamSearchState(adjacency, beam_width=beam_width, enforce_legality=enforce, max_candidates=32)
                for adjacency in adjacencies
            ]
            drive_beam_states(trans_jo, memories, states)
            flags[enforce] = []
            for adjacency, state in zip(adjacencies, states):
                candidates = state.candidates()
                assert candidates
                for candidate in candidates:
                    assert candidate.legal == is_legal_order(candidate.positions, adjacency)
                    flags[enforce].append(candidate.legal)
        assert all(flags[True])
        assert not all(flags[False])  # the unconstrained search does emit illegal orders

    def test_reach_reads_adjacency_as_is_legal_order_does(self, trans_jo):
        """On a one-way adjacency (``adj[1, 0]`` and ``adj[2, 1]`` only)
        the search extends to slot ``s`` exactly when
        ``adjacency[s, p]`` holds for a prefix table ``p``: its one legal
        order, as the oracle finds it."""
        adjacency = np.zeros((3, 3), dtype=bool)
        adjacency[1, 0] = adjacency[2, 1] = True
        memory = random_memory(3, seed=5)
        fast = beam_search_join_order(trans_jo, memory, adjacency, beam_width=3)
        assert [(c.positions, c.legal) for c in fast] == [([0, 1, 2], True)]
        assert_candidates_match(
            fast, beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=3)
        )


class TestExhaustiveOracle:
    """A beam as wide as the answer space returns that whole space.  On
    generated queries of up to 5 tables, the answer is every legal order
    (every permutation, with legality off), each scored by the
    teacher-forced ``sequence_log_probs``, and ranked by that score."""

    @pytest.mark.parametrize("enforce_legality", [True, False], ids=["legal", "permutations"])
    def test_wide_beam_returns_every_order_with_its_teacher_forced_score(
        self, db, featurizer, enforce_legality
    ):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=5, seed=4))
        items = QueryLabeler(db).label_many(generator.generate(6))
        assert {item.query.num_tables for item in items} >= {4, 5}
        with nn.no_grad():
            shared, _, encodings = model.forward_batch(db.name, items)
            memories = [
                model.join_order_memory(shared[i], encodings[i], item.query.tables)
                for i, item in enumerate(items)
            ]
        answers, states = [], []
        for item, memory in zip(items, memories):
            adjacency = item.query.adjacency_matrix()
            orders = [
                order for order in itertools.permutations(range(item.query.num_tables))
                if not enforce_legality or is_legal_order(list(order), adjacency)
            ]
            targets = np.array(orders)
            with nn.no_grad():
                scores = sequence_log_probs(
                    model.trans_jo, nn.Tensor(np.repeat(memory.data, len(orders), axis=0)),
                    targets, np.full(len(orders), targets.shape[1]),
                )
            answers.append(dict(zip(orders, scores.data.tolist())))
            states.append(
                BeamSearchState(
                    adjacency, beam_width=len(orders), enforce_legality=enforce_legality,
                    max_candidates=len(orders),
                )
            )
        drive_beam_states(model.trans_jo, memories, states)
        for answer, state in zip(answers, states):
            found = state.candidates()
            assert sorted(tuple(c.positions) for c in found) == sorted(answer)
            for candidate in found:
                assert abs(candidate.log_prob - answer[tuple(candidate.positions)]) <= 1e-9
            # In the beam's rank order, no later order scores clearly higher.
            exact = np.array([answer[tuple(c.positions)] for c in found])
            assert not np.triu(exact[None, :] > exact[:, None] + 1e-9, 1).any()


class TestFastVsTapeParity:
    """The production decode (layer bodies on raw ndarrays, cached K/V)
    must yield bit-identical candidates to the same
    bodies stepped on the autograd tape (grad enabled, K/V projected
    inline every step)."""

    @pytest.mark.parametrize("beam_width", list(range(1, 9)))
    def test_e2e_beam_parity_across_widths(self, trans_jo, beam_width):
        for m, build in ((4, chain_adjacency), (5, star_adjacency), (8, chain_adjacency)):
            memory = random_memory(m, seed=100 + m + beam_width)
            adjacency = build(m)
            tape = beam_search_join_order_tape(trans_jo, memory, adjacency, beam_width=beam_width)
            fast = beam_search_join_order(trans_jo, memory, adjacency, beam_width=beam_width)
            assert_candidates_match(fast, tape)

    def test_sequential_parity_fast_vs_tape(self, trans_jo):
        """The oracle itself, stepped on the tape vs on raw ndarrays."""
        memory = random_memory(5, seed=78)
        adjacency = star_adjacency(5)
        tape = beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=4)
        with nn.no_grad():
            fast = beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=4)
        assert_candidates_match(fast, tape)


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
    def test_kernel_call_counts_are_pinned(self, db, labeled, featurizer):
        """One fixed 8-query, width-4 decode makes exactly these kernel
        calls: 4 incremental decoder steps (its largest query has 4
        tables), one new row per beam each, after one projection of the
        8 queries' stacked memory (3 ``linear``: K, V, pointer keys).  A
        body that silently re-projects the encoder memory's K/V per query
        or per step, or re-runs the prefix, moves these numbers."""
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        session = model.inference_session(db.name)
        items = labeled[:8]
        assert [item.query.num_tables for item in items] == [3, 2, 2, 2, 3, 3, 2, 4]
        expected = {
            # cold: (F) encoders + Trans_Share + beam steps + cost rerank
            # (the rerank's probe forwards run the CostEst head only)
            "cold": {"linear": 179, "matmul": 56, "layer_norm": 76, "softmax": 28,
                     "masked_fill": 9, "relu": 26, "log_softmax": 4},
            # warm feature caches: Trans_Share + beam steps + cost rerank
            "warm": {"linear": 60, "matmul": 22, "layer_norm": 25, "softmax": 11,
                     "masked_fill": 9, "relu": 9, "log_softmax": 4},
        }
        for phase in ("cold", "warm"):
            with nn.kernels.profiled() as profile:
                session.predict_join_orders(items, beam_width=4)
            calls = {name: stats[0] for name, stats in profile.ops.items()}
            assert calls == expected[phase], phase


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
        assert connected_components(range(5), [(0, 1), (4, 3)]) == [[0, 1], [2], [3, 4]]

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


class TestBeamWidthValidation:
    """A decode width below 1 is an error at every entry point, never a
    silent greedy decode or a fallback to the config width; only None
    means "the config's width"."""

    @pytest.mark.parametrize("field,value", [("beam_width", 0), ("beam_width", -1),
                                             ("feature_cache_size", 0)])
    def test_model_config_rejects(self, field, value):
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})

    @pytest.mark.parametrize("width", [0, -1])
    def test_predict_join_orders_rejects(self, db, labeled, featurizer, width):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        with pytest.raises(ValueError, match="beam_width"):
            model.predict_join_orders(db.name, labeled[:2], beam_width=width)

    @pytest.mark.parametrize("width", [0, -1])
    def test_beam_candidates_batch_rejects(self, db, labeled, featurizer, width):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        with pytest.raises(ValueError, match="beam_width"):
            model.beam_candidates_batch(db.name, labeled[:2], beam_width=width)

    @pytest.mark.parametrize("width", [0, -1])
    def test_beam_search_state_rejects(self, width):
        with pytest.raises(ValueError, match="beam_width"):
            BeamSearchState(chain_adjacency(4), beam_width=width)


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
        assert len(featurizer.encoding_cache) == 1

    def test_signature_distinguishes_structure(self, labeled):
        signatures = {plan_signature(item.plan) for item in labeled}
        assert len(signatures) == len(labeled)

    def test_cache_respects_size_bound(self, db, labeled):
        """The bound is the featurizer's: it owns the caches."""
        config = ModelConfig(**{**SMALL.__dict__, "feature_cache_size": 3})
        featurizer = DatabaseFeaturizer(db, config)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        for item in labeled[:5]:
            model.encode_query(db.name, item)
        assert len(featurizer.encoding_cache) == 3
        # Oldest entries were evicted: re-encoding returns a new object.
        evicted = model.encode_query(db.name, labeled[0])
        again = model.encode_query(db.name, labeled[0])
        assert evicted is again  # now cached once more

    def test_rerank_probes_do_not_grow_cache_unboundedly(self, db, labeled):
        config = ModelConfig(**{**SMALL.__dict__, "feature_cache_size": 8})
        featurizer = DatabaseFeaturizer(db, config)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        for item in labeled[:6]:
            model.predict_join_order(db.name, item)
        assert len(featurizer.encoding_cache) <= 8

    def test_attach_featurizer_invalidates_cache(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        model.encode_query(db.name, labeled[0])
        assert len(featurizer.encoding_cache) == 1
        model.attach_featurizer(db.name, featurizer)
        assert len(featurizer.encoding_cache) == 0


class TestFeatureCacheLifetime:
    """(F) is frozen while (S)/(T) train, so its cached outputs live as
    long as the attached featurizer: a retrain or a clone keeps them."""

    def _predict(self, model, db, items):
        return (
            model.predict_join_orders(db.name, items),
            model.predict_costs(db.name, items),
            model.predict_cardinalities(db.name, items),
        )

    def test_kept_caches_after_training_match_cold(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = labeled[:12]
        for item in items:
            model.encode_query(db.name, item)
        JointTrainer(model).train([(db.name, item) for item in items], epochs=2, batch_size=4, seed=3)
        assert len(featurizer.encoding_cache) >= len(items) and len(featurizer.node_cache) > 0
        kept = self._predict(model, db, items)
        model.clear_cache()
        cold = self._predict(model, db, items)
        assert kept[0] == cold[0]
        for kept_arrays, cold_arrays in zip(kept[1:], cold[1:]):
            for a, b in zip(kept_arrays, cold_arrays):
                np.testing.assert_array_equal(a, b)

    def test_clone_returns_the_source_encoding(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        items = labeled[:6]
        encoded = [model.encode_query(db.name, item) for item in items]
        clone = model.clone_for_inference()
        assert all(clone.encode_query(db.name, item) is kept for item, kept in zip(items, encoded))
        clone.clear_cache()
        for item, kept in zip(items, encoded):
            cold = clone.encode_query(db.name, item)
            assert cold is not kept
            np.testing.assert_array_equal(cold.features, kept.features)
            np.testing.assert_array_equal(cold.tree_encodings, kept.tree_encodings)
            assert cold.leaf_positions == kept.leaf_positions

    def test_cached_arrays_are_read_only(self, db, labeled, featurizer):
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        encoded = model.encode_query(db.name, labeled[0])
        with pytest.raises(ValueError):
            encoded.features[0, 0] = 1.0
        with pytest.raises(ValueError):
            encoded.tree_encodings[0, 0] = 1.0
        for content in featurizer.node_cache._entries.values():
            with pytest.raises(ValueError):
                content[0] = 1.0


    def test_every_weight_change_of_the_featurizer_clears_its_caches(self, db, labeled):
        featurizer = DatabaseFeaturizer(db, SMALL)
        model = MTMLFQO(SMALL)

        def filled():
            model.encode_query(db.name, labeled[0])
            assert len(featurizer.encoding_cache) and len(featurizer.node_cache)

        def emptied():
            return (len(featurizer.encoding_cache), len(featurizer.node_cache)) == (0, 0)

        model.attach_featurizer(db.name, featurizer)
        filled()
        model.attach_featurizer(db.name, featurizer)
        assert emptied()
        filled()
        featurizer.train_encoders(queries_per_table=1, epochs=1)
        assert emptied()
        filled()
        featurizer.load_state_dict(featurizer.state_dict())
        assert emptied()

    @pytest.mark.parametrize("field", ["d_model", "node_extra_dim"])
    def test_attach_rejects_a_featurizer_of_another_shape(self, db, field):
        """An ``EncodedQuery`` is shaped by both values, and the cache is
        shared by every model the featurizer is attached to."""
        other = ModelConfig(**{**SMALL.__dict__, field: getattr(SMALL, field) * 2})
        with pytest.raises(ValueError, match=field):
            MTMLFQO(SMALL).attach_featurizer(db.name, DatabaseFeaturizer(db, other))


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
