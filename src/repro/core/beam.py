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
:class:`BeamSearchState` is one query's handle: its limits, and its beams
once finished.  :func:`drive_beam_states` advances every query of a batch
in lockstep off one shared ``TransJO.decode_step`` call per timestep:
the queries' encoder memories are padded to the largest table count,
each beam feeds one new token row, and the self-attention K/V of its
earlier rows come from a per-decode cache that follows the beam's parent
on every prune.  All alive beams of all queries form one padded row
block, the frontier, and one vectorized call per step expands and
prunes it — a masked stable top-k per row, one ``lexsort`` by (query,
−score) for every query's prune — so the bookkeeping of a step costs
the same few numpy calls at any batch size.  ``BeamSearchState.advance``
is the one-query case of that call.  Legality is an incrementally
OR-ed adjacency column per beam, so a legality-enforced candidate is
legal by construction.  There is one decode path: the driver stacks the
group's encoder memories, projects the stack once, before its first
step, and steps the decoder on raw ndarrays.  A one-beam-at-a-
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
from ..storage.schema import connected_components

from .. import nn
from ..nn import functional as F

__all__ = [
    "BeamCandidate",
    "BeamSearchState",
    "beam_search_join_order",
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


def require_connected(adjacency: np.ndarray, tables: list[str] | None = None) -> None:
    """Raise ``ValueError`` naming the components if the graph is disconnected.

    ``tables`` renders components by table name instead of position.
    A disconnected join graph has no legal complete order, so every
    legality-enforcing decode checks this up front rather than silently
    dead-ending.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    components = connected_components(range(len(adjacency)), np.argwhere(adjacency).tolist())
    if len(components) > 1:
        render = (lambda p: tables[p]) if tables is not None else str
        rendered = "; ".join(
            "{" + ", ".join(render(p) for p in sorted(c)) + "}" for c in components
        )
        raise DisconnectedQueryError(
            f"query join graph is disconnected — components: {rendered}; "
            "no legal join order exists (cross products are not supported)"
        )


class BeamSearchState:
    """One query's join-order decode: its limits and, once finished, its beams.

    ``prefixes`` (a dense ``(B, t)`` matrix) and ``scores`` hold the
    beams.  :meth:`advance` steps this query alone; it is the one-query
    case of the frontier :func:`drive_beam_states` steps a whole padded
    group with, so expansion and pruning are written once.  A driven
    state hears of its beams when its query finishes.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        beam_width: int = 3,
        enforce_legality: bool = True,
        max_candidates: int = 16,
    ):
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        self.adjacency = np.asarray(adjacency, dtype=bool)
        self.m = self.adjacency.shape[0]
        self.beam_width = beam_width
        self.enforce_legality = enforce_legality
        self.max_candidates = max_candidates
        self.prefixes = np.zeros((1, 0), dtype=np.int64)
        self.scores = np.zeros(1, dtype=np.float64)
        self.done = self.m == 0
        self._frontier: _Frontier | None = None

    @property
    def num_active(self) -> int:
        return 0 if self.done else self.prefixes.shape[0]

    def advance(self, log_probs: np.ndarray) -> np.ndarray:
        """Expand every active beam from its ``(B, m)`` log-probabilities.

        Returns the parent of each kept beam: row ``j`` of the new
        frontier extends row ``parents[j]`` of the old one.
        """
        if self.done:
            raise RuntimeError("advance() on a finished beam search")
        if self._frontier is None:
            self._frontier = _Frontier([self])
        frontier = self._frontier
        parents = frontier.advance(log_probs)
        frontier.settle()
        if not self.done:
            self.prefixes, self.scores = frontier.prefixes, frontier.scores
        return parents

    def candidates(self) -> list[BeamCandidate]:
        """Completed candidates, sorted by descending log-probability.

        With legality enforced, a beam only ever extends to a slot its
        prefix reaches (``_Frontier``), so every candidate is legal by
        construction; without it, each is checked.
        """
        out = []
        for prefix, score in zip(self.prefixes.tolist(), self.scores.tolist()):
            if len(prefix) == self.m:
                legal = (self.enforce_legality and self.m > 0) or is_legal_order(prefix, self.adjacency)
                out.append(BeamCandidate(positions=prefix, log_prob=score, legal=legal))
        out.sort(key=lambda c: -c.log_prob)
        return out[: self.max_candidates]


class _Frontier:
    """The alive beams of a group of queries' decodes as one row block.

    Row ``r`` extends a prefix of query ``query[r]`` (an index into
    ``states``).  Rows are query-major, and within a query they keep the
    order of its last prune, so the block is exactly the per-query
    frontiers stacked.  Every array is padded to the group's largest
    table count ``M``: a pad slot counts as used, so it is never
    expanded.  ``reach`` marks the slots adjacent to a row's prefix (all
    of them before the first step, and always for a query decoded without
    legality): slot ``s`` once ``adjacency[s, p]`` holds for a prefix
    table ``p``, the test :func:`is_legal_order` applies.  ``beams[q]``
    is query ``q``'s row count, 0 once it finished, and ``live`` the
    number of queries with rows.
    """

    def __init__(self, states: list[BeamSearchState]):
        if any(state.done or state.prefixes.shape[1] for state in states):
            raise ValueError("a frontier starts from fresh, unfinished beam searches")
        self.states = states
        self.m = np.array([state.m for state in states])
        width = np.array([state.beam_width for state in states])
        slots = np.arange(self.m.max())
        # Per-query limits: expansions per beam, and beams kept after
        # step t (``keep[t]``: the width, max_candidates after the last).
        self.k = np.minimum(width, self.m)
        self.columns = np.arange(self.k.max())
        self.keep = np.where(
            slots[:, None] + 1 < self.m, width, [state.max_candidates for state in states]
        )
        self.ends = set(self.m.tolist())  # steps after which some query is complete
        self.links = np.ones((len(states), len(slots), len(slots)), dtype=bool)
        for q, state in enumerate(states):
            if state.enforce_legality:
                self.links[q] = False
                self.links[q, : state.m, : state.m] = state.adjacency.T
        self.query = np.arange(len(states))
        self.prefixes = np.zeros((len(states), 0), dtype=np.int64)
        self.scores = np.zeros(len(states), dtype=np.float64)
        self.used = slots[None, :] >= self.m[:, None]
        self.reach = np.ones_like(self.used)
        self.beams = np.ones(len(states), dtype=np.int64)
        self.live = len(states)

    def advance(self, log_probs: np.ndarray) -> np.ndarray:
        """Expand every row from its ``(R, M')`` log-probabilities and
        prune each query to its limit; returns each new row's parent.

        ``M'`` may be below ``M`` once the group's largest query is gone;
        every alive query fits in it.
        """
        t = self.prefixes.shape[1]
        width = log_probs.shape[1]
        allowed = ~self.used[:, :width] & self.reach[:, :width]
        # Per-row top-k: stable argsort on -log_prob with disallowed
        # positions pushed past the end, matching the reference's stable
        # ``sorted(allowed, key=lambda p: -log_probs[p])[:beam_width]``.
        ranked = np.argsort(np.where(allowed, -log_probs, np.inf), axis=1, kind="stable")
        ranked = ranked[:, : len(self.columns)]
        take = np.minimum(allowed.sum(axis=1), self.k[self.query])
        valid = self.columns[: ranked.shape[1]] < take[:, None]
        parents = np.repeat(np.arange(len(take)), take)
        positions = ranked[valid]
        scores = self.scores[parents] + log_probs[parents, positions]
        # Per-query prune: stable sort by (query, descending score), so
        # ties keep the (beam, rank) emission order as the reference's
        # list.sort does.  ``owner`` is already sorted, so it is also the
        # sorted owner column, and a row's rank is its offset in its run.
        owner = self.query[parents]
        order = np.lexsort((-scores, owner))
        sizes = np.bincount(owner, minlength=len(self.states))
        rank = np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner]
        kept = order[rank < self.keep[t][owner]]
        parents, positions = parents[kept], positions[kept]
        self.query = owner[kept]
        self.prefixes = np.concatenate([self.prefixes[parents], positions[:, None]], axis=1)
        self.scores = scores[kept]
        self.used = self.used[parents]
        self.used[np.arange(len(positions)), positions] = True
        links = self.links[self.query, positions]
        self.reach = links if t == 0 else self.reach[parents] | links
        return parents

    def settle(self) -> np.ndarray | None:
        """Hand each query that just finished — complete, or dead-ended
        with no row left — its beams, and drop its rows.

        Returns the indices of the rows kept, or None when all are.
        """
        t = self.prefixes.shape[1]
        beams = np.bincount(self.query, minlength=len(self.states))
        # Nothing finished unless a live query lost its last row or some
        # query's last step was this one.
        if t not in self.ends and np.count_nonzero(beams) == self.live:
            self.beams = beams
            return None
        finished = (self.beams > 0) & ((beams == 0) | (self.m == t))
        ends = np.cumsum(beams)
        for q in np.flatnonzero(finished):
            state, rows = self.states[q], slice(ends[q] - beams[q], ends[q])
            state.prefixes, state.scores, state.done = self.prefixes[rows], self.scores[rows], True
        kept = np.flatnonzero(~finished[self.query])
        self.query, self.prefixes, self.scores = self.query[kept], self.prefixes[kept], self.scores[kept]
        self.used, self.reach = self.used[kept], self.reach[kept]
        beams[finished] = 0
        self.beams, self.live = beams, np.count_nonzero(beams)
        return kept


class _MemoryRows:
    """A group's encoder memory rows, stacked and projected once.

    ``rows`` stacks every query's ``(m_q, d)`` memory, query ``q``'s
    from ``first_row[q]``: a beam that chose table ``p`` of query ``q``
    feeds row ``first_row[q] + p`` next.  One ``project_memory`` call
    over the stack gives every query's cross-attention K/V per decoder
    layer and pointer keys; each projection gets one zero row appended,
    which is where a padded slot gathers from.
    """

    def __init__(self, trans_jo, memories: list[nn.Tensor]):
        self.rows = np.concatenate([memory.data[0] for memory in memories], axis=0)
        self.sizes = np.array([memory.shape[1] for memory in memories])
        self.first_row = np.cumsum(self.sizes) - self.sizes
        memory_kv, pointer_keys = trans_jo.project_memory(self.rows[None])
        arrays = [array for pair in memory_kv for array in pair] + [pointer_keys]
        self.projected = [
            np.concatenate([array[0], np.zeros((1, array.shape[-1]))]) for array in arrays
        ]

    def padded(self, beams: np.ndarray) -> tuple:
        """``(memory_kv, pointer_keys, memory_padding_mask)`` for
        :meth:`TransJO.decode_step` when query ``q`` has ``beams[q]``
        rows: each query's projections repeated per beam and zero padded
        to the largest table count among the queries with beams, one
        gather per array.  The mask is None when those counts match."""
        live = np.flatnonzero(beams)
        counts, sizes = beams[live], self.sizes[live]
        slots = np.arange(sizes.max())
        pad = slots >= sizes[:, None]
        index = np.where(pad, len(self.rows), self.first_row[live][:, None] + slots)
        index = np.repeat(index, counts, axis=0)
        arrays = [array.take(index, axis=0) for array in self.projected]
        memory_kv = list(zip(arrays[:-1:2], arrays[1:-1:2]))
        padding = np.repeat(pad, counts, axis=0) if pad.any() else None
        return memory_kv, arrays[-1], padding


def drive_beam_states(
    trans_jo,
    memories: list[nn.Tensor],
    states: list[BeamSearchState],
    scratch=None,  # ignored; read only by benchmarks/ledger, goes with ROADMAP item 12's [benchmark] PR
) -> None:
    """Advance many beam searches in lockstep off shared decoder steps.

    ``memories[i]`` is the (1, m_i, d) encoder memory of ``states[i]``.
    The unfinished states' beams form one padded row block (one
    frontier), and each timestep makes one incremental ``decode_step``
    call and one vectorized expand-and-prune over it, so a batch takes
    as many steps as its largest query has tables.  A beam feeds one new
    token row (the start token, then the memory row of the table it
    chose last); the self-attention K/V of its earlier rows sit in a
    per-layer cache whose rows are re-gathered by parent after every
    prune, and finished queries' rows are dropped from it.  A state
    receives its beams when its query finishes.

    The queries' encoder memories are stacked and projected
    (cross-attention K/V per decoder layer, pointer keys) exactly once,
    before the step loop, into locals of this call — so projections can
    never leak across decodes or model hot-swaps.  The padded batch of
    them depends only on how many beams each query has (0 once
    finished), so it is gathered once per such key; queries of fewer
    tables are masked at the padded slots.
    """
    if len(memories) != len(states):
        raise ValueError("one memory per beam state required")
    alive = [i for i, state in enumerate(states) if not state.done]
    if not alive:
        return
    frontier = _Frontier([states[i] for i in alive])
    # Padded projections, keyed by the per-query beam counts.
    assembled: dict[bytes, tuple] = {}
    with nn.no_grad():
        memory = _MemoryRows(trans_jo, [memories[i] for i in alive])
        past_kv = trans_jo.decoder.empty_past_kv()
        tokens = F.repeat_batch(trans_jo.start_token.data.reshape(1, 1, -1), len(alive))
        while True:
            key = frontier.beams.tobytes()
            projections = assembled.get(key)
            if projections is None:
                projections = assembled[key] = memory.padded(frontier.beams)
            memory_kv, pointer_keys, padding = projections
            log_probs = F.log_softmax(
                trans_jo.decode_step(
                    tokens, None, past_kv,
                    memory_padding_mask=padding,
                    memory_kv=memory_kv,
                    pointer_keys=pointer_keys,
                )
            )
            parents = frontier.advance(log_probs)
            kept = frontier.settle()
            if not frontier.live:
                return
            if kept is not None:
                parents = parents[kept]
            for layer_kv in past_kv:
                layer_kv[0], layer_kv[1] = layer_kv[0][parents], layer_kv[1][parents]
            rows = memory.first_row[frontier.query] + frontier.prefixes[:, -1]
            tokens = memory.rows[rows][:, None, :]


def beam_search_join_order(
    trans_jo,
    memory: nn.Tensor,
    adjacency: np.ndarray,
    beam_width: int = 3,
    enforce_legality: bool = True,
    max_candidates: int = 16,
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
    drive_beam_states(trans_jo, [memory], [state])
    return state.candidates()
