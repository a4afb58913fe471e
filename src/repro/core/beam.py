"""Legality-aware beam search for join orders (Section 4.3).

The query's join predicates induce an adjacency matrix over its tables.
A legal left-deep join order must, at every timestamp after the first,
pick a table adjacent to at least one already-joined table (no cross
products).  The beam search expands the top-k candidates per step and
restricts expansion to legal tables, so every emitted candidate is
guaranteed executable; for a connected query the search can never dead-
end (a connected graph always has a spanning order from any start).

``legal=False`` candidates are additionally collectable (by disabling
the adjacency restriction) to feed the illegal-order penalty term of the
sequence-level loss (Equation 3).

Decoding is **batched and incremental** (DESIGN.md section 2).
:class:`BeamSearchState` holds one query's beam frontier, and
:func:`drive_beam_states` advances every query of a batch in lockstep off
one shared ``TransJO.decode_step`` call per timestep: the queries' encoder
memories are padded to the largest table count, each beam feeds one new
token row, and the self-attention K/V of its earlier rows come from a
per-decode cache that follows the beam's parent on every prune
(``advance`` returns the parents).  Legality masks are vectorized numpy
operations over the adjacency matrix.  There is one decode path: the
driver projects each query's encoder memory once (a per-decode
``nn.KVCache``) and steps the decoder on raw ndarrays.  A one-beam-at-a-
time reference search lives with the tests (``tests/sequential_oracle.py``);
it steps the same ``decode_step`` at B = 1, and the batched search
matches it at decode level — identical positions, legal flags and
candidate order, log-probabilities within 1e-9 (padding and batching
change gemm shapes, so the last ulp may differ).

A disconnected join graph has no legal complete order; with legality
enforced the search detects this up front and raises ``ValueError``
naming the components instead of silently returning no candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DisconnectedQueryError

from .. import nn
from ..nn import functional as F

__all__ = [
    "BeamCandidate",
    "BeamSearchState",
    "beam_search_join_order",
    "connected_components",
    "require_connected",
    "drive_beam_states",
    "is_legal_order",
]


@dataclass
class BeamCandidate:
    """One decoded join order with its sequence log-probability."""

    positions: list[int]
    log_prob: float
    legal: bool

    def tables(self, table_names: list[str]) -> list[str]:
        return [table_names[p] for p in self.positions]


def is_legal_order(positions: list[int], adjacency: np.ndarray) -> bool:
    """True iff the order never joins a table disconnected from its prefix."""
    if not positions:
        return False
    joined = {positions[0]}
    for position in positions[1:]:
        if not any(adjacency[position, j] for j in joined):
            return False
        joined.add(position)
    return True


def connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of the join graph, as sorted position lists."""
    adjacency = np.asarray(adjacency, dtype=bool)
    m = adjacency.shape[0]
    seen: set[int] = set()
    components: list[list[int]] = []
    for root in range(m):
        if root in seen:
            continue
        frontier = [root]
        component = {root}
        while frontier:
            node = frontier.pop()
            for other in np.flatnonzero(adjacency[node]):
                other = int(other)
                if other not in component:
                    component.add(other)
                    frontier.append(other)
        seen |= component
        components.append(sorted(component))
    return components


def require_connected(adjacency: np.ndarray, tables: list[str] | None = None) -> None:
    """Raise ``ValueError`` naming the components if the graph is disconnected.

    ``tables`` renders components by table name instead of position.
    A disconnected join graph has no legal complete order, so every
    legality-enforcing decode checks this up front rather than silently
    dead-ending.
    """
    components = connected_components(adjacency)
    if len(components) > 1:
        render = (lambda p: tables[p]) if tables is not None else str
        rendered = "; ".join("{" + ", ".join(render(p) for p in c) + "}" for c in components)
        raise DisconnectedQueryError(
            f"query join graph is disconnected — components: {rendered}; "
            "no legal join order exists (cross products are not supported)"
        )


class BeamSearchState:
    """The beam frontier of one query's join-order decode.

    Holds the active prefixes as a dense ``(B, t)`` matrix plus their
    scores and used-table masks, and advances all beams at once from a
    ``(B, m)`` block of next-step log-probabilities.  The expansion and
    pruning rules replicate the sequential reference exactly (including
    stable tie-breaking).
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        beam_width: int = 3,
        enforce_legality: bool = True,
        max_candidates: int = 16,
    ):
        self.adjacency = np.asarray(adjacency, dtype=bool)
        self.m = self.adjacency.shape[0]
        self.beam_width = beam_width
        self.enforce_legality = enforce_legality
        self.max_candidates = max_candidates
        self._adjacency_float = self.adjacency.astype(np.float64)
        self.prefixes = np.zeros((1, 0), dtype=np.int64)
        self.scores = np.zeros(1, dtype=np.float64)
        self.used = np.zeros((1, self.m), dtype=bool)
        self.done = self.m == 0

    @property
    def num_active(self) -> int:
        return 0 if self.done else self.prefixes.shape[0]

    def _allowed_mask(self) -> np.ndarray:
        """(B, m) mask of positions each beam may expand to."""
        allowed = ~self.used
        if self.enforce_legality and self.prefixes.shape[1] > 0:
            # A position is reachable iff adjacent to any prefix member;
            # membership == used (prefixes never repeat positions).
            connected = (self.used.astype(np.float64) @ self._adjacency_float) > 0.0
            allowed &= connected
        return allowed

    def advance(self, log_probs: np.ndarray) -> np.ndarray:
        """Expand every active beam from its ``(B, m)`` log-probabilities.

        Returns the parent of each kept beam: row ``j`` of the new
        frontier extends row ``parents[j]`` of the old one.
        """
        if self.done:
            raise RuntimeError("advance() on a finished beam search")
        t = self.prefixes.shape[1]
        num_beams = self.prefixes.shape[0]
        allowed = self._allowed_mask()
        counts = allowed.sum(axis=1)
        if not counts.any():
            # Dead end (disconnected graph with legality enforced was
            # rejected up front; this guards duck-typed callers).
            self.prefixes = np.zeros((0, t), dtype=np.int64)
            self.scores = np.zeros(0, dtype=np.float64)
            self.done = True
            return np.zeros(0, dtype=np.int64)
        # Per-beam top-k: stable argsort on -log_prob with disallowed
        # positions pushed past the end, matching the reference's stable
        # ``sorted(allowed, key=lambda p: -log_probs[p])[:beam_width]``.
        k = min(max(self.beam_width, 1), self.m)
        ranked = np.argsort(np.where(allowed, -log_probs, np.inf), axis=1, kind="stable")[:, :k]
        take = np.minimum(counts, k)
        valid = np.arange(k)[None, :] < take[:, None]
        beam_index = np.repeat(np.arange(num_beams), take)
        positions = ranked[valid]
        new_scores = self.scores[beam_index] + log_probs[beam_index, positions]
        # Global prune: stable sort by descending score (ties keep the
        # (beam, rank) emission order, as the reference's list.sort does).
        keep = max(self.beam_width, 1) if t + 1 < self.m else self.max_candidates
        order = np.argsort(-new_scores, kind="stable")[:keep]
        beam_index, positions, new_scores = beam_index[order], positions[order], new_scores[order]
        self.prefixes = np.concatenate(
            [self.prefixes[beam_index], positions[:, None]], axis=1
        )
        self.scores = new_scores
        self.used = self.used[beam_index].copy()
        self.used[np.arange(len(positions)), positions] = True
        self.done = self.prefixes.shape[1] == self.m
        return beam_index

    def candidates(self) -> list[BeamCandidate]:
        """Completed candidates, sorted by descending log-probability."""
        out = [
            BeamCandidate(
                positions=prefix.tolist(),
                log_prob=float(score),
                legal=is_legal_order(prefix.tolist(), self.adjacency),
            )
            for prefix, score in zip(self.prefixes, self.scores)
            if len(prefix) == self.m
        ]
        out.sort(key=lambda c: -c.log_prob)
        return out[: self.max_candidates]


def drive_beam_states(
    trans_jo,
    memories: list[nn.Tensor],
    states: list[BeamSearchState],
    scratch: "nn.ScratchArena | None" = None,
) -> None:
    """Advance many beam searches in lockstep off shared decoder steps.

    ``memories[i]`` is the (1, m_i, d) encoder memory of ``states[i]``.
    Each timestep makes one incremental ``decode_step`` call over every
    active beam of every unfinished state, so a batch takes as many
    steps as its largest query has tables.  A beam feeds one new token
    row (the start token, then the memory row of the table it chose
    last); the self-attention K/V of its earlier rows sit in a per-layer
    cache whose rows are re-gathered by parent after every prune, and
    finished queries' rows are dropped from it.

    Each query's encoder memory is projected (cross-attention K/V per
    decoder layer, pointer keys) exactly once into a per-query
    :class:`nn.KVCache` created here — and therefore dropped here, so
    projections can never leak across decodes or model hot-swaps.  The
    padded batch of them depends only on which states are alive and how
    many beams each has, so it is assembled once per such key; queries
    of fewer tables are masked at the padded slots, and each state reads
    only its own ``m_i`` log-probabilities.  ``scratch`` is the caller's
    session-private arena for kernel output buffers.
    """
    if len(memories) != len(states):
        raise ValueError("one memory per beam state required")
    alive = [i for i, state in enumerate(states) if not state.done]
    if not alive:
        return
    # One cache per query, living exactly as long as this drive call.
    caches = [nn.KVCache(memory) for memory in memories]
    # Padded projections per (live queries, beam counts) key.
    assembled: dict[tuple, tuple] = {}
    # Every query's table rows, stacked: a beam that chose table p of
    # query i feeds row ``first_row[i] + p`` next.
    table = np.concatenate([memory.data[0] for memory in memories], axis=0)
    first_row = np.cumsum([0] + [memory.shape[1] for memory in memories[:-1]])
    with nn.no_grad():
        past_kv = trans_jo.decoder.empty_past_kv()
        tokens = F.repeat_batch(trans_jo.start_token.data.reshape(1, 1, -1), len(alive))
        while True:
            counts = [states[i].num_active for i in alive]
            key = (tuple(alive), tuple(counts))
            projections = assembled.get(key)
            if projections is None:
                per_query = [trans_jo.project_memory(memories[i], caches[i]) for i in alive]
                projections = assembled[key] = trans_jo.concat_memory_kv(per_query, counts)
            memory_kv, pointer_keys, padding = projections
            log_probs = F.log_softmax(
                trans_jo.decode_step(
                    tokens, None, past_kv,
                    memory_padding_mask=padding,
                    memory_kv=memory_kv,
                    pointer_keys=pointer_keys,
                    scratch=scratch,
                )
            )
            survivors, keep, next_rows = [], [], []
            offset = 0
            for i, n_beams in zip(alive, counts):
                state = states[i]
                parents = state.advance(log_probs[offset: offset + n_beams, : state.m])
                if not state.done:
                    survivors.append(i)
                    keep.append(offset + parents)
                    next_rows.append(first_row[i] + state.prefixes[:, -1])
                offset += n_beams
            if not survivors:
                return
            alive = survivors
            keep = np.concatenate(keep)
            for layer_kv in past_kv:
                layer_kv[0], layer_kv[1] = layer_kv[0][keep], layer_kv[1][keep]
            tokens = table[np.concatenate(next_rows)][:, None, :]


def beam_search_join_order(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
    scratch: "nn.ScratchArena | None" = None,
) -> list[BeamCandidate]:
    """Decode join orders with batched beam search.

    Parameters
    ----------
    trans_jo:
        The :class:`repro.core.trans_jo.TransJO` decoder.
    memory:
        (1, m, d) single-table representations from Trans_Share.
    adjacency:
        (m, m) boolean join adjacency of the query.
    enforce_legality:
        When True (inference), only adjacency-respecting expansions are
        considered — the emitted orders are guaranteed executable, and a
        disconnected join graph raises ``ValueError`` up front.  When
        False (loss collection), only the "no repeats" rule applies and
        candidates are labelled legal/illegal afterwards.

    Returns candidates sorted by descending log-probability.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    if enforce_legality:
        require_connected(adjacency)
    state = BeamSearchState(
        adjacency,
        beam_width=beam_width,
        enforce_legality=enforce_legality,
        max_candidates=max_candidates,
    )
    drive_beam_states(trans_jo, [memory], [state], scratch=scratch)
    return state.candidates()
