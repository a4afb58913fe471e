"""Test-side reference decoders for the batched beam search.

Neither is production code (``src/`` has exactly one decode path,
``drive_beam_states``); both exist so tests and
``benchmarks/bench_batched_decode.py`` have something independent to
compare that path against:

- :func:`beam_search_join_order_sequential` — the original search: one
  decoder forward per beam per timestep (``step_logits_batch`` at B=1),
  plain-Python expansion and pruning.
- :func:`beam_search_join_order_tape` — the lockstep ``BeamSearchState``
  frontier stepped with ``Tensor`` inputs and no projection cache.

Both hand ``TransJO.step_logits_batch`` *Tensors* and inherit the
caller's grad mode: called plainly (grad enabled) they run the layer
bodies on the autograd tape, so comparing them with the kernel-stepped
production search is the decode-level tape↔kernel check; wrapped in
``nn.no_grad()`` they run the same bodies on raw ndarrays.
"""

import numpy as np

import repro.nn as nn
from repro.core import BeamCandidate, BeamSearchState, is_legal_order, require_connected
from repro.nn import functional as F


def beam_search_join_order_sequential(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
) -> list[BeamCandidate]:
    """Reference beam search: one decoder forward per beam per timestep."""
    if enforce_legality:
        require_connected(adjacency)
    m = memory.shape[1]
    beams: list[tuple[list[int], float]] = [([], 0.0)]
    for _ in range(m):
        expansions: list[tuple[list[int], float]] = []
        for prefix, score in beams:
            logits = trans_jo.step_logits_batch(memory, [prefix])
            log_probs = F.log_softmax(logits).data.reshape(-1)
            allowed = _allowed_positions(prefix, adjacency, enforce_legality)
            if not allowed:
                continue
            ranked = sorted(allowed, key=lambda p: -log_probs[p])[:beam_width]
            for position in ranked:
                expansions.append((prefix + [position], score + float(log_probs[position])))
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
        for prefix, score in beams
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
    """Batched search stepped on Tensors: all beams in one forward per
    timestep, memory K/V re-projected inline at every step."""
    state = BeamSearchState(
        adjacency,
        beam_width=beam_width,
        enforce_legality=enforce_legality,
        max_candidates=max_candidates,
    )
    while not state.done:
        # same row assembly as drive_beam_states, so operand layouts match
        rows = np.concatenate(
            [np.broadcast_to(memory.data, (state.num_active,) + memory.shape[1:])], axis=0
        )
        logits = trans_jo.step_logits_batch(nn.Tensor(rows), state.prefixes)
        state.advance(F.log_softmax(logits).data)
    return state.candidates()
