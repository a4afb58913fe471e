"""Test-side reference decoders for the batched beam search.

Neither is production code (``src/`` has exactly one decode path,
``drive_beam_states``); both exist so tests and
``benchmarks/bench_batched_decode.py`` have something independent to
compare that path against:

- :func:`beam_search_join_order_sequential` — the original search: one
  incremental ``TransJO.decode_step`` per beam per timestep at B = 1,
  each beam carrying its own self-attention cache, plain-Python
  expansion and pruning.
- :func:`beam_search_join_order_tape` — the lockstep ``BeamSearchState``
  frontier of one query stepped with ``Tensor`` inputs and no projection
  cache, its self-attention cache re-gathered by ``advance``'s parents.

Both hand ``decode_step`` *Tensors* and inherit the caller's grad mode:
called plainly (grad enabled) they run the layer bodies on the autograd
tape, so comparing them with the kernel-stepped production search is the
decode-level tape↔kernel check; wrapped in ``nn.no_grad()`` they run the
same bodies on raw ndarrays.  The production search batches beams and
pads queries, which changes gemm shapes, so it is compared with these at
decode level (``assert_candidates_match``), not bit for bit.
"""

import numpy as np

import repro.nn as nn
from repro.core import BeamCandidate, BeamSearchState, is_legal_order, require_connected
from repro.nn import functional as F

# |Δ log_prob| allowed between two decodes of one query whose gemm shapes
# differ (batched or padded against B = 1): rounding, never a decision.
LOG_PROB_TOLERANCE = 1e-9


def assert_candidates_match(fast, slow, tolerance: float = LOG_PROB_TOLERANCE):
    """The decode-level contract: the same candidates in the same order —
    identical positions and legal flags — with log-probabilities within
    ``tolerance``."""
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert a.positions == b.positions
        assert a.legal == b.legal
        assert abs(a.log_prob - b.log_prob) <= tolerance, (a.log_prob, b.log_prob)


def beam_search_join_order_sequential(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
) -> list[BeamCandidate]:
    """Reference beam search: one B = 1 decoder step per beam per timestep."""
    if enforce_legality:
        require_connected(adjacency)
    m = memory.shape[1]
    start = trans_jo.start_token.reshape(1, 1, -1)
    beams = [([], 0.0, trans_jo.decoder.empty_past_kv())]
    for _ in range(m):
        expansions = []
        for prefix, score, past_kv in beams:
            token = memory[:, prefix[-1:]] if prefix else start
            logits = trans_jo.decode_step(token, memory, past_kv)
            log_probs = F.log_softmax(logits).data.reshape(-1)
            allowed = _allowed_positions(prefix, adjacency, enforce_legality)
            if not allowed:
                continue
            ranked = sorted(allowed, key=lambda p: -log_probs[p])[:beam_width]
            for position in ranked:
                child_kv = [list(layer_kv) for layer_kv in past_kv]
                expansions.append((prefix + [position], score + float(log_probs[position]), child_kv))
        if not expansions:
            break
        expansions.sort(key=lambda item: -item[1])
        beams = expansions[: max(beam_width, 1) if len(expansions[0][0]) < m else max_candidates]

    candidates = [
        BeamCandidate(
            positions=prefix,
            log_prob=score,
            legal=is_legal_order(prefix, adjacency),
        )
        for prefix, score, _ in beams
        if len(prefix) == m
    ]
    candidates.sort(key=lambda c: -c.log_prob)
    return candidates[:max_candidates]


def _allowed_positions(prefix: list[int], adjacency: np.ndarray, enforce_legality: bool) -> list[int]:
    m = adjacency.shape[0]
    used = set(prefix)
    allowed = []
    for position in range(m):
        if position in used:
            continue
        if enforce_legality and prefix:
            if not any(adjacency[position, j] for j in prefix):
                continue
        allowed.append(position)
    return allowed


def beam_search_join_order_tape(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
) -> list[BeamCandidate]:
    """Lockstep search stepped on Tensors: all beams in one decoder step
    per timestep, memory K/V re-projected inline at every step."""
    state = BeamSearchState(
        adjacency,
        beam_width=beam_width,
        enforce_legality=enforce_legality,
        max_candidates=max_candidates,
    )
    past_kv = trans_jo.decoder.empty_past_kv()
    tokens = trans_jo.start_token.reshape(1, 1, -1)
    while not state.done:
        rows = nn.Tensor(np.broadcast_to(memory.data, (state.num_active,) + memory.shape[1:]).copy())
        logits = trans_jo.decode_step(tokens, rows, past_kv)
        parents = state.advance(F.log_softmax(logits).data)
        if state.done:
            break
        for layer_kv in past_kv:
            layer_kv[0], layer_kv[1] = layer_kv[0][parents], layer_kv[1][parents]
        tokens = memory[0][state.prefixes[:, -1]].reshape(state.num_active, 1, -1)
    return state.candidates()
