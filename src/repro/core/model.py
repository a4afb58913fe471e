"""The MTMLF-QO model: (F) featurizers + (S) Trans_Share + (T) task heads.

One :class:`MTMLFQO` instance holds a *single* shared representation
module and task-specific module, plus one attached
:class:`DatabaseFeaturizer` per database — mirroring Figure 1: the (F)
module is database-specific, (S)/(T) are shared across tasks *and*
databases (which is what MLA exploits).

Per the paper's training rule ("the gradient ... will be backpropagated
to update the parameters of the (S) and (T) modules only"), featurizer
outputs are detached inside node assembly; the per-table encoders are
trained separately (Algorithm 1, line 4).

The (F) outputs node assembly reads are cached on the featurizer that
produced them (:class:`repro.core.encoders.FeatureCache`), not on the
model: a model, its clones and every fleet round's private copy share
the featurizer object and therefore one cache per featurizer, so
encodings computed by one of them — a rejected fine-tune candidate's
included — serve all.  A featurizer must match the model's ``d_model``
and ``node_extra_dim``, the two values that shape an
:class:`EncodedQuery` (DESIGN.md §3).
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from .. import nn
from ..engine.plan import JoinOp, PlanNode, ScanOp
from ..nn.positional import tree_layout_encoding
from ..nn.spec import shape_spec
from ..sql.query import Query
from ..workload.labeler import LabeledQuery
from .beam import (
    BeamCandidate,
    BeamSearchState,
    drive_beam_states,
    require_connected,
)
from .config import ModelConfig
from .encoders import DatabaseFeaturizer
from .heads import EstimationHead
from .serializer import plan_signature, query_probe_key, serialize_plan
from .shared import SharedRepresentation
from .trans_jo import TransJO

__all__ = ["MTMLFQO", "EncodedQuery", "InferenceSession", "assemble_nodes", "NODE_EXTRA_FEATURES"]

# Batched inference processes items in bounded chunks: the Trans_Share
# forward pads to the chunk's max node count and attention is quadratic
# in it, so an unbounded batch over a large workload would blow up
# memory for no extra speedup.
_INFERENCE_CHUNK = 64

# One counter for every model in the process: a version names one model
# state, so two models (a clone, a checkpoint load, an independently
# built twin) can never carry the same value.
_VERSIONS = itertools.count()

# The raw node features MTMLFQO._node_extra_features writes, slots 0..13
# of a ``node_extra_dim``-wide row (``ModelConfig`` refuses a narrower one).
NODE_EXTRA_FEATURES = 14


class EncodedQuery:
    """The (F) output of one plan, by reference (DESIGN.md §3).

    ``contents`` holds each node's ``(1, d_model)`` content row, in
    preorder — the read-only arrays the featurizer's ``node_cache``
    stores, not copies — and ``extras`` the ``(L, node_extra_dim)``
    structural features.  ``tree_encodings`` is the ``(L, d_model)``
    tree-position rows of the plan's shape, one read-only array shared
    by every plan of that shape (:func:`tree_layout_encoding`).  A plan
    and its rerank probes therefore share rows instead of each holding
    its own.
    """

    __slots__ = ("contents", "extras", "tree_encodings", "leaf_positions", "num_nodes")

    def __init__(
        self,
        contents: tuple[np.ndarray, ...],
        extras: np.ndarray,
        tree_encodings: np.ndarray,
        leaf_positions: dict[str, int],
    ):
        self.contents = contents              # L x (1, d_model), node_cache's
        self.extras = extras                  # (L, node_extra_dim)
        self.tree_encodings = tree_encodings  # (L, d_model), interned per shape
        self.leaf_positions = leaf_positions  # table -> node index
        self.num_nodes = extras.shape[0]

    @property
    def features(self) -> np.ndarray:
        """The dense ``(L, node_feature_dim)`` raw node features, read-only:
        this plan's row of :func:`assemble_nodes`, built on each read."""
        features = assemble_nodes([self])[0][0]
        features.setflags(write=False)
        return features


def assemble_nodes(encodings: list[EncodedQuery]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Trans_Share inputs of a batch: ``(B, Lmax, node_feature_dim)``
    raw node features, ``(B, Lmax, d_model)`` tree encodings and the
    ``(B, Lmax)`` padding mask (True at padded slots).

    Three gathers, however many plans, write every plan's content rows,
    structural features and tree rows — zeros at padded slots — into
    the two arrays: the values the dense per-plan copy wrote
    (``tests/dense_assembly_reference.py``).  Content rows and features
    are joined as raw bytes (every stored array is C-contiguous
    float64), which copies a row for a fraction of what
    ``np.concatenate`` spends per array.
    """
    max_len = max(encoding.num_nodes for encoding in encodings)
    d_model = encodings[0].tree_encodings.shape[1]
    extra_dim = encodings[0].extras.shape[1]
    pads: dict[int, tuple[bytes, bytes]] = {}  # padded slots -> zero rows
    contents: list = []
    extras: list = []
    trees: list = []
    for encoding in encodings:
        contents.extend(encoding.contents)
        extras.append(encoding.extras)
        trees.append(encoding.tree_encodings)
        padding = max_len - encoding.num_nodes
        if padding:
            pad = pads.get(padding)
            if pad is None:
                pad = pads[padding] = (bytes(8 * padding * d_model), bytes(8 * padding * extra_dim))
            contents.append(pad[0])
            extras.append(pad[1])
            trees.append(pad[0])
    shape = (len(encodings), max_len)
    batch = np.empty((*shape, d_model + extra_dim), dtype=np.float64)
    rows = batch.reshape(-1, d_model + extra_dim)
    rows[:, :d_model] = np.frombuffer(b"".join(contents), dtype=np.float64).reshape(-1, d_model)
    rows[:, d_model:] = np.frombuffer(b"".join(extras), dtype=np.float64).reshape(-1, extra_dim)
    # A bytearray join is writable, so the tree rows need no second copy.
    trees_batch = np.frombuffer(bytearray().join(trees), dtype=np.float64).reshape(*shape, d_model)
    pad_mask = np.arange(max_len) >= np.array([encoding.num_nodes for encoding in encodings])[:, None]
    return batch, trees_batch, pad_mask


class _NoDraws:
    """Stands in for the initialising generator of a clone, whose
    weights are overwritten right after construction: every draw the
    layers ask for is zeros of the asked shape."""

    @staticmethod
    def uniform(low, high, size):
        return np.zeros(size)

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


class MTMLFQO(nn.Module):
    """The multi-task model for CardEst + CostEst + JoinSel."""

    def __init__(self, config: ModelConfig | None = None):
        config = config or ModelConfig()
        self._build(config, np.random.default_rng(config.seed))

    def _build(self, config: ModelConfig, rng) -> None:
        super().__init__()
        self.config = config
        self.shared = SharedRepresentation(self.config, rng)
        self.card_head = EstimationHead(self.config, rng)
        self.cost_head = EstimationHead(self.config, rng)
        self.trans_jo = TransJO(self.config, rng)
        # The (S)/(T) parameters' values, one aligned vector in
        # named_parameters order (every p.data is a view into it): what
        # a trainer's Adam steps in place, a clone copies and a fleet
        # tenant ships.  No (F) parameter is in it.
        self.weights = nn.parameter_vector(self.parameters())
        # (F) modules by database; each owns the caches of its outputs.
        self.featurizers: dict[str, DatabaseFeaturizer] = {}  # guarded-by: _infer_lock
        # Serializes concurrent *inference* through the model: the public
        # inference entry points (predict_*, beam_candidates_batch) all
        # acquire it, so direct calls are safe alongside a running
        # serving session.  It does NOT make training concurrent
        # with serving safe — trainer steps mutate weights outside this
        # lock; retrain offline, then mark_updated().
        self._infer_lock = threading.RLock()  # analysis: coarse-lock
        # Renewed whenever the model's outputs may have changed
        # (attach_featurizer, trainer runs), from the process-wide
        # counter.  Downstream result caches — the serving layer's plan
        # cache — embed it in their keys so entries computed against
        # other weights, this model's old ones or another model's, can
        # never hit again.
        self.version = next(_VERSIONS)  # guarded-by: _infer_lock

    # -- Module plumbing ------------------------------------------------------
    def named_parameters(self, prefix: str = ""):
        found = []
        found.extend(self.shared.named_parameters(prefix=f"{prefix}shared."))
        found.extend(self.card_head.named_parameters(prefix=f"{prefix}card_head."))
        found.extend(self.cost_head.named_parameters(prefix=f"{prefix}cost_head."))
        found.extend(self.trans_jo.named_parameters(prefix=f"{prefix}trans_jo."))
        return found

    def load_weights(self, weights: np.ndarray) -> None:
        """Copy another model's (S)/(T) :attr:`weights` into this one's,
        in place.  A vector of any other shape raises ``ValueError``;
        it is never broadcast."""
        if np.shape(weights) != self.weights.shape:
            raise ValueError(
                f"(S)/(T) vector has shape {np.shape(weights)}, this model's {self.weights.shape}"
            )
        np.copyto(self.weights, weights)

    # ------------------------------------------------------------------
    def attach_featurizer(self, db_name: str, featurizer: DatabaseFeaturizer) -> None:
        """Register the (F) module of a database and clear its caches.

        The featurizer owns the caches of its outputs, which every model
        it is attached to shares (DESIGN.md §3).  An ``EncodedQuery`` is
        shaped by ``d_model`` and ``node_extra_dim`` too, so a featurizer
        whose config differs from the model's in either is rejected:
        one cache key could otherwise hold two shapes.  Holds the
        inference lock, so no inference of this model is in flight.
        """
        for field in ("d_model", "node_extra_dim"):
            ours, theirs = getattr(self.config, field), getattr(featurizer.config, field)
            if ours != theirs:
                raise ValueError(
                    f"featurizer for {db_name!r} has {field}={theirs}, the model {field}={ours}"
                )
        with self._infer_lock:
            self.featurizers[db_name] = featurizer
            featurizer.clear_caches()
            self.mark_updated()

    def featurizer_for(self, db_name: str) -> DatabaseFeaturizer:
        with self._infer_lock:
            try:
                return self.featurizers[db_name]
            except KeyError:
                raise KeyError(f"no featurizer attached for database {db_name!r}") from None

    def clear_cache(self) -> None:
        """Clear the (F) caches of every attached featurizer — shared with
        every other model they are attached to."""
        with self._infer_lock:
            for featurizer in self.featurizers.values():
                featurizer.clear_caches()

    def mark_updated(self) -> None:
        """Record that the model's (S)/(T) outputs may have changed.

        Called automatically by :meth:`attach_featurizer` and the
        trainers; call it yourself after mutating (S)/(T) weights by
        hand.  Gives :attr:`version` a fresh process-wide value, which
        serving-layer plan caches embed in their keys, retiring every
        previously cached result.
        The featurizers' caches stay: (F) is frozen while (S)/(T) train,
        so its outputs are unchanged.
        """
        with self._infer_lock:
            self.version = next(_VERSIONS)

    def inference_session(self, db_name: str) -> "InferenceSession":
        """A reusable, thread-safe handle for repeated inference calls.

        The serving layer (``repro.serve``) holds one session per
        database instead of calling the model directly: the session
        validates the featurizer once and serializes calls through the
        model's inference lock, so concurrent sessions never interleave
        on one model or with ``mark_updated`` and checkpointing.
        """
        return InferenceSession(self, db_name)

    def databases(self) -> dict[str, "object"]:
        """``{db_name: Database}`` for every attached featurizer.

        An atomic snapshot under the inference lock — callers (e.g.
        ``OptimizerService.swap_model`` defaulting checkpoint database
        handles) must not iterate :attr:`featurizers` directly while
        another thread may attach one.
        """
        with self._infer_lock:
            return {name: featurizer.db for name, featurizer in self.featurizers.items()}

    def clone_for_inference(self) -> "MTMLFQO":
        """A detached copy of this model's weights, ready to serve.

        The in-memory equivalent of a checkpoint round trip
        (``repro.core.checkpoint``): same config, a bit-identical copy
        of the (S)/(T) :attr:`weights` vector and the same frozen (F)
        *objects* — a new featurizer dict holding the source's
        :class:`DatabaseFeaturizer` instances, which no trainer steps
        while attached, and with them their caches — but its **own**
        inference lock and :attr:`version`, so inference on the clone
        never contends with the original, and produces orders
        bit-identical to the source model's.  Encodings either model
        computes serve both, a rejected candidate's included.

        The clone's vector shares no memory with the source's, so later
        in-place training of either model can never leak into the other.
        Its module tree draws no initial values: the copy overwrites them.
        """
        return self._clone_under(None)

    def _clone_under(self, weights: np.ndarray | None) -> "MTMLFQO":
        """:meth:`clone_for_inference` holding ``weights`` — a vector of
        this model's layout, copied once — instead of this model's own
        (None).  A vector of another shape raises ``ValueError``."""
        clone = MTMLFQO.__new__(MTMLFQO)
        clone._build(self.config, _NoDraws())
        with self._infer_lock:
            clone.load_weights(self.weights if weights is None else weights)
            featurizers = dict(self.featurizers)
        # Not yet shared, so no lock is needed.
        clone.featurizers = featurizers
        return clone

    # ------------------------------------------------------------------
    # Node assembly (F -> raw node sequence)
    # ------------------------------------------------------------------
    def _node_extra_features(self, node: PlanNode, featurizer: DatabaseFeaturizer, depth: int) -> np.ndarray:
        out = np.zeros(self.config.node_extra_dim, dtype=np.float64)
        db = featurizer.db
        total_base = sum(db.statistics(t).num_rows for t in node.tables)
        out[7] = np.log10(max(total_base, 1)) / 7.0
        out[8] = len(node.tables) / 10.0
        out[9] = depth / 10.0
        if node.is_scan:
            out[0] = 1.0
            if node.scan_op is ScanOp.SEQ:
                out[2] = 1.0
            elif node.scan_op is ScanOp.INDEX:
                out[3] = 1.0
            out[11] = len(node.filter) / 4.0 if node.filter is not None else 0.0
        else:
            out[1] = 1.0
            # Slot 5 held the merge join's one-hot; it stays 0 so widths
            # and initial draws hold until the width change (ROADMAP item 7).
            if node.join_op is JoinOp.HASH:
                out[4] = 1.0
            elif node.join_op is JoinOp.NESTED_LOOP:
                out[6] = 1.0
            out[10] = len(node.join_predicates) / 4.0
            out[12] = len(node.left.tables) / 10.0
            out[13] = len(node.right.tables) / 10.0
        return out

    def _node_content(self, node: PlanNode, featurizer: DatabaseFeaturizer) -> np.ndarray:
        """The ``(1, d_model)`` content row of a node's raw features
        (detached, read-only).

        Memoized in the featurizer's ``node_cache`` per structural node
        identity: scan content depends only on ``(table, filter)``, join
        content only on the predicate column sequence, so every plan
        over the same query (rerank probes, alternate orders) reuses the
        encoder outputs instead of re-running the (F) ``Enc_i``
        transformer forwards node by node, and its encoding references
        the cached row.  A scan is keyed by the filter part of its kept
        :func:`plan_signature`, so a filter is stringified once per node
        object.
        """
        d = self.config.d_model
        cache = featurizer.node_cache
        if node.is_scan:
            key = ("scan", node.table, plan_signature(node)[3])
            cached = cache.get(key)
            if cached is not None:
                return cached
            with nn.no_grad():
                encoded = featurizer.encode_filter(node.filter)
            # A copy: the summary token's row is a view of the whole
            # encoder output, which the cache would otherwise keep alive.
            content = encoded.data.reshape(1, d).copy()
            content.setflags(write=False)
            cache.put(key, content)
            return content
        # Joins: mean embedding of the join-key columns (per-DB knowledge).
        half = d // 2
        ids = []
        for predicate in node.join_predicates:
            ids.append(featurizer.predicates.column_index[(predicate.left, predicate.left_column)] + 1)
            ids.append(featurizer.predicates.column_index[(predicate.right, predicate.right_column)] + 1)
        key = ("join", tuple(ids))
        cached = cache.get(key)
        if cached is not None:
            return cached
        with nn.no_grad():
            vectors = featurizer.column_embedding(np.asarray(ids, dtype=np.int64))
        content = np.zeros((1, d), dtype=np.float64)
        content[0, :half] = vectors.data.mean(axis=0)
        content.setflags(write=False)
        cache.put(key, content)
        return content

    def encode_query(self, db_name: str, labeled: LabeledQuery) -> EncodedQuery:
        """Run the (F) module on one query's plan.

        Cached in the featurizer's bounded ``encoding_cache``, keyed by
        the plan's structural signature, so structurally equivalent
        plans share one entry (DESIGN.md §3).  The signature is computed
        once per plan object and kept on it (copies do not carry it), so
        a resubmitted plan is signed once.  Plans are treated as
        immutable once signed.
        """
        return self._encode(self.featurizer_for(db_name), labeled)

    def _encode(self, featurizer: DatabaseFeaturizer, labeled: LabeledQuery) -> EncodedQuery:
        key = plan_signature(labeled.plan)
        cached = featurizer.encoding_cache.get(key)
        if cached is not None:
            return cached
        encoded = self._encode_plan(featurizer, labeled.plan)
        featurizer.encoding_cache.put(key, encoded)
        return encoded

    def _encode_plan(self, featurizer: DatabaseFeaturizer, plan: PlanNode) -> EncodedQuery:
        """The plan-level half of :meth:`_encode`, uncached: the caller
        stores the result under its own key."""
        nodes, positions = serialize_plan(plan)
        extras = np.zeros((len(nodes), self.config.node_extra_dim), dtype=np.float64)
        for index, (node, position) in enumerate(zip(nodes, positions)):
            extras[index] = self._node_extra_features(node, featurizer, position.depth)
        extras.setflags(write=False)
        return EncodedQuery(
            tuple(self._node_content(node, featurizer) for node in nodes),
            extras,
            tree_layout_encoding(positions, self.config.d_model),
            {node.table: index for index, node in enumerate(nodes) if node.is_scan},
        )

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def forward_batch(
        self, db_name: str, items: list[LabeledQuery]
    ) -> tuple[nn.Tensor, np.ndarray, list[EncodedQuery]]:
        """Shared representations for a batch of queries.

        Returns ``(S, pad_mask, encodings)`` where S is
        (B, Lmax, d_model) and pad_mask is True at padded node slots.
        Each item's plan is signed once per object and the signature
        kept on it (:meth:`encode_query`); copies sign themselves afresh.
        The Trans_Share inputs are gathered from the rows the encodings
        reference by one :func:`assemble_nodes` call.
        """
        featurizer = self.featurizer_for(db_name)
        encodings = [self._encode(featurizer, item) for item in items]
        shared, pad_mask = self._share(encodings)
        return shared, pad_mask, encodings

    def _share(self, encodings: list[EncodedQuery]) -> tuple[nn.Tensor, np.ndarray]:
        """The Trans_Share output and padding mask of ``encodings``."""
        batch, trees, pad_mask = assemble_nodes(encodings)
        return self.shared(nn.Tensor(batch), trees, key_padding_mask=pad_mask), pad_mask

    def predict_log_nodes(
        self, db_name: str, items: list[LabeledQuery]
    ) -> tuple[nn.Tensor, nn.Tensor, np.ndarray, list[EncodedQuery], nn.Tensor]:
        """Per-node log-card and log-cost predictions for a batch."""
        shared, pad_mask, encodings = self.forward_batch(db_name, items)
        log_cards = self.card_head(shared)
        log_costs = self.cost_head(shared)
        return log_cards, log_costs, pad_mask, encodings, shared

    @shape_spec(inputs={"shared_row": "(L, d_model)"},
                out="(1, m, d_model)")
    def join_order_memory(
        self, shared_row: nn.Tensor, encoding: EncodedQuery, table_order: list[str]
    ) -> nn.Tensor:
        """Single-table representations (1, m, d) for Trans_JO.

        ``shared_row`` is the (Lmax, d) shared output of one query;
        ``table_order`` fixes the position -> table correspondence
        (queries list tables in generation order).
        """
        leaves = [encoding.leaf_positions[table] for table in table_order]
        return shared_row[leaves].reshape(1, len(leaves), self.config.d_model)

    def join_order_memory_batch(
        self, shared: nn.Tensor, encodings: list[EncodedQuery], table_orders: dict[int, list[str]]
    ) -> nn.Tensor:
        """:meth:`join_order_memory` for many rows of ``shared`` in one
        indexed read: ``table_orders`` maps a row of the (B, Lmax, d)
        shared output to its table order.  Returns the (R, m_max, d)
        memories in the mapping's order; slots past a row's table count
        repeat its node 0 and are padding the caller must mask.
        """
        leaves, _ = nn.functional.pad_index_sequences(
            [[encodings[row].leaf_positions[table] for table in tables]
             for row, tables in table_orders.items()]
        )
        rows = np.fromiter(table_orders, dtype=np.int64, count=len(table_orders))
        return shared[rows[:, None], leaves]

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def predict_cardinalities(self, db_name: str, items: list[LabeledQuery]) -> list[np.ndarray]:
        """Per-node cardinality predictions (linear scale), preorder."""
        with self._infer_lock:
            with nn.no_grad():
                log_cards, _, _, encodings, _ = self.predict_log_nodes(db_name, items)
        out = []
        for i, encoding in enumerate(encodings):
            out.append(np.exp(log_cards.data[i, : encoding.num_nodes]))
        return out

    def predict_costs(self, db_name: str, items: list[LabeledQuery]) -> list[np.ndarray]:
        """Per-node cost predictions (linear scale), preorder."""
        with self._infer_lock:
            with nn.no_grad():
                _, log_costs, _, encodings, _ = self.predict_log_nodes(db_name, items)
        out = []
        for i, encoding in enumerate(encodings):
            out.append(np.exp(log_costs.data[i, : encoding.num_nodes]))
        return out

    @staticmethod
    def _require_connected(query: Query) -> np.ndarray:
        """Reject queries whose join graph has no legal complete order.

        Returns the adjacency matrix so callers build it only once.
        """
        adjacency = query.adjacency_matrix()
        require_connected(adjacency, query.tables)
        return adjacency

    def _beam_width(self, beam_width: int | None) -> int:
        """An explicit decode width (>= 1), or the config's for None."""
        if beam_width is None:
            return self.config.beam_width
        if beam_width < 1:
            raise ValueError(f"beam_width must be >= 1, got {beam_width}")
        return beam_width

    def _decode_candidate_chunks(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int,
        enforce_legality: bool,
        adjacencies: "list[np.ndarray] | None" = None,
    ) -> list[list[BeamCandidate]]:
        """Encode + lockstep-decode ``items`` in bounded chunks.

        The whole pipeline — Trans_Share forward, memory gather, beam
        drive — runs per chunk of ``_INFERENCE_CHUNK`` queries, so peak
        memory is capped by the chunk size no matter how many queries
        are passed in.
        """
        all_candidates: list[list[BeamCandidate]] = []
        for start in range(0, len(items), _INFERENCE_CHUNK):
            chunk = items[start: start + _INFERENCE_CHUNK]
            with nn.no_grad():
                shared, _, encodings = self.forward_batch(db_name, chunk)
                memories = [
                    self.join_order_memory(shared[i], encodings[i], item.query.tables)
                    for i, item in enumerate(chunk)
                ]
            states = [
                BeamSearchState(
                    adjacencies[start + i] if adjacencies is not None
                    else item.query.adjacency_matrix(),
                    beam_width=beam_width,
                    enforce_legality=enforce_legality,
                )
                for i, item in enumerate(chunk)
            ]
            drive_beam_states(self.trans_jo, memories, states)
            all_candidates.extend(state.candidates() for state in states)
        return all_candidates

    def predict_join_order(
        self,
        db_name: str,
        labeled: LabeledQuery,
        beam_width: int | None = None,
        enforce_legality: bool = True,
        rerank_with_cost: bool | None = None,
    ) -> list[str]:
        """Beam-search decode a legal join order for one query.

        ``rerank_with_cost`` enables the multi-task synergy the paper
        motivates ("the inference of each task can effectively take
        others into consideration"): the top beam candidates are turned
        into left-deep plans and re-ranked by the model's *own* CostEst
        head, so a sequence-likelihood favourite with a catastrophic
        predicted cost is demoted.  Defaults to on whenever the cost
        task was trained (``w_cost > 0``); the MTMLF-JoinSel ablation
        has no cost head signal and decodes by likelihood alone.
        """
        return self.predict_join_orders(
            db_name,
            [labeled],
            beam_width=beam_width,
            enforce_legality=enforce_legality,
            rerank_with_cost=rerank_with_cost,
        )[0]

    def predict_join_orders(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int | None = None,
        enforce_legality: bool = True,
        rerank_with_cost: bool | None = None,
    ) -> list[list[str]]:
        """Batched join-order inference for many queries at once.

        Queries are processed in bounded chunks: one Trans_Share forward
        encodes each chunk, then every query's beam search advances in
        lockstep — each timestep expands all active beams of all the
        chunk's queries with one incremental Trans_JO step (see
        :func:`repro.core.beam.drive_beam_states`).  Emitted orders are
        identical to per-query :meth:`predict_join_order` calls, and
        peak memory is capped by the chunk size.

        Raises ``ValueError`` up front for any query whose join graph is
        disconnected (naming the components) when legality is enforced,
        and for an explicit ``beam_width`` below 1 (None means the
        config's width).
        """
        beam_width = self._beam_width(beam_width)
        if not items:
            return []
        adjacencies = None
        if enforce_legality:
            adjacencies = [self._require_connected(item.query) for item in items]
        # The lock serializes direct calls with a running serving
        # session and with mark_updated / checkpointing: forwards are
        # pure and the (F) caches take their own locks, but
        # ``featurizers`` and ``version`` are read under it.
        with self._infer_lock:
            per_query = self._decode_candidate_chunks(
                db_name, items, beam_width, enforce_legality, adjacencies
            )
            if rerank_with_cost is None:
                rerank_with_cost = self.config.w_cost > 0.0
            orders: list[list[str] | None] = [None] * len(items)
            rerank_entries: list[tuple[int, LabeledQuery, list[BeamCandidate]]] = []
            for i, (item, candidates) in enumerate(zip(items, per_query)):
                if not candidates:
                    raise RuntimeError("beam search produced no candidates")
                if rerank_with_cost and len(candidates) > 1 and item.query.num_tables > 2:
                    rerank_entries.append((i, item, candidates))
                else:
                    orders[i] = candidates[0].tables(item.query.tables)
            for i, order in self._rerank_by_cost_batch(db_name, rerank_entries).items():
                orders[i] = order
            return orders

    def _rerank_by_cost_batch(
        self,
        db_name: str,
        entries: list[tuple[int, LabeledQuery, list]],
        margin: float = 0.7,
    ) -> dict[int, list[str]]:
        """Demote likelihood favourites only on a clear cost signal.

        Each legal candidate is costed by the model's own CostEst head;
        a query's beam favourite (its top-likelihood candidate) is
        tracked explicitly and kept unless some other candidate's
        predicted log-cost undercuts it by more than ``margin`` (0.7 in
        natural log ~ a 2x predicted speedup).  The margin makes the
        rerank a disaster-avoidance mechanism rather than a full
        re-ordering: CostEst is accurate enough to spot catastrophic
        orders but noisier than the decoder on near-ties.  When a
        favourite itself fails to plan there is no candidate the margin
        should shield, so the top-scoring survivor — the plannable
        candidate with the best predicted cost — is returned instead.

        A probe's encoding is a function of the database, the query and
        the order alone, so it is looked up in the featurizer's
        ``encoding_cache`` under ``("probe", query_probe_key(query),
        order)``: a query decoded again — by this model after a swap, a
        gate's candidate, a clone — builds no plan for it.  Only the
        misses are planned (``plan_with_orders``, against one
        cardinality view per query: a query's candidates share their
        scans and most prefixes), encoded and stored under that key.
        Probes of *all* queries are costed in shared CostEst forwards,
        grouped by probe node count so each forward pads exactly like a
        solo call would, and costs are bit-identical to per-query ones.
        A complete order over ``m`` tables always plans to ``2m - 1``
        nodes, so a group mixes queries only when their table counts
        match.  Only the CostEst head runs.  Returns ``{entry index ->
        chosen order}``.
        """
        from ..optimizer.planner import plan_with_orders
        from ..optimizer.selectivity import HistogramEstimator

        results: dict[int, list[str]] = {}
        if not entries:
            return results
        featurizer = self.featurizer_for(db_name)
        cache = featurizer.encoding_cache
        estimator = None  # built on the first miss
        prepared = []  # (index, orders, probe encodings, favourite_planned)
        for index, labeled, candidates in entries:
            query = labeled.query
            query_key = query_probe_key(query)
            all_orders = [candidate.tables(query.tables) for candidate in candidates]
            keys = [("probe", query_key, tuple(order)) for order in all_orders]
            encodings = [cache.get(key) for key in keys]
            missing = [i for i, encoding in enumerate(encodings) if encoding is None]
            if missing:
                if estimator is None:
                    estimator = HistogramEstimator(featurizer.db)
                plans = plan_with_orders(
                    query, [all_orders[i] for i in missing], estimator.for_query(query)
                )
                for i, plan in zip(missing, plans):
                    if plan is not None:  # an illegal order: no probe
                        encodings[i] = self._encode_plan(featurizer, plan)
                        cache.put(keys[i], encodings[i])
            probes = [encoding for encoding in encodings if encoding is not None]
            if not probes:
                results[index] = all_orders[0]
            else:
                orders = [order for order, encoding in zip(all_orders, encodings) if encoding is not None]
                prepared.append((index, orders, probes, encodings[0] is not None))

        groups: dict[int, list] = {}
        for entry in prepared:
            groups.setdefault(entry[2][0].num_nodes, []).append(entry)
        for group in groups.values():
            flat = [probe for _, _, probes, _ in group for probe in probes]
            # Chunked CostEst forwards over the group's probes (the
            # root's predicted log-cost is preorder index 0 per row).
            root_costs: list[float] = []
            with nn.no_grad():
                for start in range(0, len(flat), _INFERENCE_CHUNK):
                    shared, _ = self._share(flat[start: start + _INFERENCE_CHUNK])
                    root_costs.extend(self.cost_head(shared).data[:, 0].tolist())
            cursor = 0
            for index, orders, probes, favourite_planned in group:
                scored = list(zip(orders, root_costs[cursor: cursor + len(probes)]))
                cursor += len(probes)
                favourite_cost = scored[0][1] if favourite_planned else None
                challenger_order, challenger_cost = min(scored, key=lambda item: item[1])
                if favourite_cost is None:
                    # The favourite cannot be planned: nothing to protect
                    # with the margin; take the best-costed survivor.
                    results[index] = challenger_order
                elif challenger_cost < favourite_cost - margin:
                    results[index] = challenger_order
                else:
                    results[index] = scored[0][0]
        return results

    def beam_candidates_batch(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int | None = None,
        enforce_legality: bool = False,
    ) -> list[list[BeamCandidate]]:
        """Raw beam candidates for many queries off one shared forward.

        Batches the Trans_Share encode across queries and drives all
        beam searches in lockstep, like :meth:`predict_join_orders` but
        returning the full candidate lists (the sequence-level loss
        needs the illegal ones too).  ``beam_width`` as in
        :meth:`predict_join_orders`.
        """
        beam_width = self._beam_width(beam_width)
        if not items:
            return []
        adjacencies = None
        if enforce_legality:
            adjacencies = [self._require_connected(item.query) for item in items]
        with self._infer_lock:
            return self._decode_candidate_chunks(
                db_name, items, beam_width, enforce_legality, adjacencies
            )


class InferenceSession:
    """Reusable handle over one ``(model, database)`` pair.

    Created via :meth:`MTMLFQO.inference_session`.  Every call runs
    under the model's inference lock (acquired by the model's own
    inference entry points), so concurrent sessions — and direct model
    calls — serialize against each other, and results are identical to
    calling the model directly.  The lock does *not* cover trainer
    steps: training concurrently with serving is unsupported — retrain
    offline, then :meth:`MTMLFQO.mark_updated`.  A session is only that
    binding, which the serving layer swaps atomically with its model.
    """

    scratch = ()  # empty; read only by benchmarks/ledger, goes with ROADMAP item 12's [benchmark] PR

    def __init__(self, model: MTMLFQO, db_name: str):
        self.model = model
        self.db_name = db_name
        model.featurizer_for(db_name)  # fail fast on a missing (F) module

    def predict_join_orders(self, items: list[LabeledQuery], **kwargs) -> list[list[str]]:
        """Batched join-order inference; see :meth:`MTMLFQO.predict_join_orders`."""
        return self.model.predict_join_orders(self.db_name, items, **kwargs)

    def predict_cardinalities(self, items: list[LabeledQuery]) -> list[np.ndarray]:
        return self.model.predict_cardinalities(self.db_name, items)

    def predict_costs(self, items: list[LabeledQuery]) -> list[np.ndarray]:
        return self.model.predict_costs(self.db_name, items)
