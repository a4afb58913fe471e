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
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict

import numpy as np

from .. import nn
from ..engine.plan import JoinOp, PlanNode, ScanOp
from ..nn.positional import tree_path_encoding
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
from .serializer import plan_signature, serialize_plan
from .shared import SharedRepresentation
from .trans_jo import TransJO

__all__ = ["MTMLFQO", "EncodedQuery", "FeatureCache", "InferenceSession"]

# Batched inference processes items in bounded chunks: the Trans_Share
# forward pads to the chunk's max node count and attention is quadratic
# in it, so an unbounded batch over a large workload would blow up
# memory for no extra speedup.
_INFERENCE_CHUNK = 64

# One counter for every model in the process: a version names one model
# state, so two models (a clone, a checkpoint load, an independently
# built twin) can never carry the same value.
_VERSIONS = itertools.count()


class FeatureCache:
    """Bounded LRU over structurally-keyed :class:`EncodedQuery` entries.

    Keys are ``(db_name, plan_signature(plan))`` — structural, so two
    distinct but node-for-node identical plans (the cost-rerank's probe
    plans, re-labeled copies of a query) share one entry, and a recycled
    object address can never alias a stale encoding the way the previous
    ``id()``-keyed dict could.  The size bound keeps inference-time probe
    plans from growing the cache without limit.

    Entries are (F) outputs, so they live as long as the attached
    featurizer (DESIGN.md §3): only :meth:`MTMLFQO.attach_featurizer`
    invalidates them, and :meth:`copy` hands a clone the same entries.
    Their arrays are read-only, because a model and its clones share them.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: "OrderedDict[tuple, EncodedQuery]" = OrderedDict()

    def get(self, key: tuple) -> "EncodedQuery | None":
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, value: "EncodedQuery") -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()

    def copy(self) -> "FeatureCache":
        """A new cache holding the same (shared, read-only) entries in the
        same LRU order."""
        twin = FeatureCache(self.maxsize)
        twin._entries = self._entries.copy()
        return twin

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries


class EncodedQuery:
    """Cached raw features of one labeled query (F-module output)."""

    __slots__ = ("features", "tree_encodings", "leaf_positions", "num_nodes")

    def __init__(self, features: np.ndarray, tree_encodings: np.ndarray, leaf_positions: dict[str, int]):
        self.features = features              # (L, node_feature_dim)
        self.tree_encodings = tree_encodings  # (L, d_model)
        self.leaf_positions = leaf_positions  # table -> node index
        self.num_nodes = features.shape[0]


class MTMLFQO(nn.Module):
    """The multi-task model for CardEst + CostEst + JoinSel."""

    def __init__(self, config: ModelConfig | None = None):
        super().__init__()
        self.config = config or ModelConfig()
        rng = np.random.default_rng(self.config.seed)
        self.shared = SharedRepresentation(self.config, rng)
        self.card_head = EstimationHead(self.config, rng)
        self.cost_head = EstimationHead(self.config, rng)
        self.trans_jo = TransJO(self.config, rng)
        self.featurizers: dict[str, DatabaseFeaturizer] = {}  # guarded-by: _infer_lock
        self._cache = FeatureCache(self.config.feature_cache_size)  # guarded-by: _infer_lock
        # Node-content memo: a scan node's content depends only on
        # (table, filter) and a join node's only on its predicate
        # columns, so distinct plans over one query (rerank probes,
        # alternative orders) share almost every node.  Memoizing here
        # skips the per-node encoder forwards (the (F) ``Enc_i``
        # transformer over filter predicates) that dominate encode_query
        # on repeat traffic.
        self._node_cache = FeatureCache(self.config.feature_cache_size)  # guarded-by: _infer_lock
        # Serializes concurrent *inference* through the model: the public
        # inference entry points (predict_*, beam_candidates_batch) all
        # acquire it, so direct calls are safe alongside a running
        # serving session.  It does NOT make training concurrent
        # with serving safe — trainer steps mutate weights and caches
        # outside this lock; retrain offline, then mark_updated().
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

    def shared_task_parameters(self) -> list[nn.Parameter]:
        """Parameters of the (S) and (T) modules (the trainable set)."""
        return [p for _, p in self.named_parameters()]

    # ------------------------------------------------------------------
    def attach_featurizer(self, db_name: str, featurizer: DatabaseFeaturizer) -> None:
        """Register the (F) module of a database.

        The one invalidation of the feature/node caches: their entries
        are featurizer outputs and (F) is frozen while attached, so this
        is the only way they can go stale.  To retrain or reload a
        featurizer, do it detached and re-attach it.  Holds the inference
        lock: otherwise an in-flight inference on another thread could
        re-insert an old-featurizer encoding *after* the clear, and the
        feature caches carry no version in their keys to catch that.
        """
        with self._infer_lock:
            self.featurizers[db_name] = featurizer
            self.clear_cache()
            self.mark_updated()

    def featurizer_for(self, db_name: str) -> DatabaseFeaturizer:
        with self._infer_lock:
            try:
                return self.featurizers[db_name]
            except KeyError:
                raise KeyError(f"no featurizer attached for database {db_name!r}") from None

    def clear_cache(self) -> None:
        with self._infer_lock:
            self._cache.clear()
            self._node_cache.clear()

    def mark_updated(self) -> None:
        """Record that the model's (S)/(T) outputs may have changed.

        Called automatically by :meth:`attach_featurizer` and the
        trainers; call it yourself after mutating (S)/(T) weights by
        hand.  Gives :attr:`version` a fresh process-wide value, which
        serving-layer plan caches embed in their keys, retiring every
        previously cached result.
        The feature/node caches stay: (F) is frozen while (S)/(T) train,
        so its outputs are unchanged (to change a featurizer, re-attach
        it).
        """
        with self._infer_lock:
            self.version = next(_VERSIONS)

    def inference_session(self, db_name: str) -> "InferenceSession":
        """A reusable, thread-safe handle for repeated inference calls.

        The serving layer (``repro.serve``) holds one session per
        database instead of calling the model directly: the session
        validates the featurizer once and serializes calls through the
        model's inference lock so that concurrent sessions can't
        interleave feature-cache bookkeeping.
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
        (``repro.core.checkpoint``): same config, bit-identical (S)/(T)
        weights (state dicts copy on both save and load) and the same
        frozen (F) *objects* — a new featurizer dict holding the
        source's :class:`DatabaseFeaturizer` instances, which no trainer
        steps while attached — but its **own** inference lock, feature /
        node caches and :attr:`version`, so inference on the clone never
        contends with (or pollutes the caches of) the original, and
        produces orders bit-identical to the source model's.  The clone's
        caches start with the source's entries, in LRU order: they are
        outputs of the shared (F), and read-only, so the copy is shallow.

        The clone shares no (S)/(T) weight array, so later in-place
        training of either model can never leak into the other.
        """
        with self._infer_lock:
            state = self.state_dict()
            featurizers = dict(self.featurizers)
            caches = (self._cache.copy(), self._node_cache.copy())
        clone = MTMLFQO(self.config)
        clone.load_state_dict(state)
        # Not yet shared, so no lock is needed.
        clone.featurizers = featurizers
        clone._cache, clone._node_cache = caches
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
            if node.join_op is JoinOp.HASH:
                out[4] = 1.0
            elif node.join_op is JoinOp.MERGE:
                out[5] = 1.0
            elif node.join_op is JoinOp.NESTED_LOOP:
                out[6] = 1.0
            out[10] = len(node.join_predicates) / 4.0
            out[12] = len(node.left.tables) / 10.0
            out[13] = len(node.right.tables) / 10.0
        return out

    def _node_content(self, db_name: str, node: PlanNode, featurizer: DatabaseFeaturizer) -> np.ndarray:  # holds: _infer_lock
        """The d_model content slice of a node's raw features (detached).

        Memoized per structural node identity: scan content depends only
        on ``(table, filter)``, join content only on the predicate
        column sequence, so every plan over the same query (rerank
        probes, alternate orders) reuses the encoder outputs instead of
        re-running the (F) forwards node by node.  A scan is keyed by
        the filter part of its kept :func:`plan_signature`, so a filter
        is stringified once per node object.
        """
        d = self.config.d_model
        if node.is_scan:
            key = (db_name, "scan", node.table, plan_signature(node)[3])
            cached = self._node_cache.get(key)
            if cached is not None:
                return cached
            with nn.no_grad():
                encoded = featurizer.encode_filter(node.filter)
            content = encoded.data.reshape(d)
            content.setflags(write=False)
            self._node_cache.put(key, content)
            return content
        # Joins: mean embedding of the join-key columns (per-DB knowledge).
        half = d // 2
        ids = []
        for predicate in node.join_predicates:
            ids.append(featurizer.predicates.column_index[(predicate.left, predicate.left_column)] + 1)
            ids.append(featurizer.predicates.column_index[(predicate.right, predicate.right_column)] + 1)
        key = (db_name, "join", tuple(ids))
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        with nn.no_grad():
            vectors = featurizer.column_embedding(np.asarray(ids, dtype=np.int64))
        content = np.zeros(d, dtype=np.float64)
        content[:half] = vectors.data.mean(axis=0)
        content.setflags(write=False)
        self._node_cache.put(key, content)
        return content

    def encode_query(self, db_name: str, labeled: LabeledQuery) -> EncodedQuery:  # holds: _infer_lock
        """Run the (F) module on one query's plan.

        Cached in a bounded LRU keyed by the plan's structural signature,
        so structurally equivalent plans share one entry (DESIGN.md §3).
        The signature is computed once per plan object and kept on it
        (copies do not carry it), so a resubmitted plan, and every node
        the rerank's probes share, is signed once.  Plans are treated as
        immutable once signed.
        """
        key = (db_name, plan_signature(labeled.plan))
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        featurizer = self.featurizer_for(db_name)
        nodes, positions = serialize_plan(labeled.plan)
        features = np.zeros((len(nodes), self.config.node_feature_dim), dtype=np.float64)
        tree_enc = np.zeros((len(nodes), self.config.d_model), dtype=np.float64)
        leaf_positions: dict[str, int] = {}
        for index, (node, position) in enumerate(zip(nodes, positions)):
            features[index, : self.config.d_model] = self._node_content(db_name, node, featurizer)
            features[index, self.config.d_model:] = self._node_extra_features(node, featurizer, position.depth)
            tree_enc[index] = tree_path_encoding(position, self.config.d_model)
            if node.is_scan:
                leaf_positions[node.table] = index
        features.setflags(write=False)
        tree_enc.setflags(write=False)
        encoded = EncodedQuery(features, tree_enc, leaf_positions)
        self._cache.put(key, encoded)
        return encoded

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
        """
        encodings = [self.encode_query(db_name, item) for item in items]
        max_len = max(e.num_nodes for e in encodings)
        batch = np.zeros((len(items), max_len, self.config.node_feature_dim), dtype=np.float64)
        trees = np.zeros((len(items), max_len, self.config.d_model), dtype=np.float64)
        pad_mask = np.ones((len(items), max_len), dtype=bool)
        for i, encoding in enumerate(encodings):
            batch[i, : encoding.num_nodes] = encoding.features
            trees[i, : encoding.num_nodes] = encoding.tree_encodings
            pad_mask[i, : encoding.num_nodes] = False
        shared = self.shared(nn.Tensor(batch), trees, key_padding_mask=pad_mask)
        return shared, pad_mask, encodings

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

    def _decode_candidate_chunks(
        self,
        db_name: str,
        items: list[LabeledQuery],
        beam_width: int | None,
        enforce_legality: bool,
        adjacencies: "list[np.ndarray] | None" = None,
        scratch: "nn.ScratchArena | None" = None,
    ) -> list[list[BeamCandidate]]:
        """Encode + lockstep-decode ``items`` in bounded chunks.

        The whole pipeline — Trans_Share forward, memory gather, beam
        drive — runs per chunk of ``_INFERENCE_CHUNK`` queries, so peak
        memory is capped by the chunk size no matter how many queries
        are passed in.
        """
        width = beam_width or self.config.beam_width
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
                    beam_width=width,
                    enforce_legality=enforce_legality,
                )
                for i, item in enumerate(chunk)
            ]
            drive_beam_states(self.trans_jo, memories, states, scratch=scratch)
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
        scratch: "nn.ScratchArena | None" = None,
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
        disconnected (naming the components) when legality is enforced.
        """
        if not items:
            return []
        adjacencies = None
        if enforce_legality:
            adjacencies = [self._require_connected(item.query) for item in items]
        # The lock makes direct calls safe alongside a running serving
        # session: forwards are pure but the feature/node LRU caches
        # are not thread-safe.
        with self._infer_lock:
            per_query = self._decode_candidate_chunks(
                db_name, items, beam_width, enforce_legality, adjacencies, scratch=scratch
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

        Probes of *all* queries are costed in shared CostEst forwards,
        grouped by probe node count so each forward pads exactly like a
        solo call would, and costs are bit-identical to per-query ones.
        A complete order over ``m`` tables always plans to ``2m - 1``
        nodes, so a group mixes queries only when their table counts
        match.  A query's candidates share their scans and most
        prefixes, so each distinct prefix is planned once
        (``plan_with_orders``, against one cardinality view per query)
        and signed once: a probe node keeps its ``plan_signature``, and
        probes share nodes.  Probes are fresh objects, fully costed
        before they are signed and never written after.  Only the
        CostEst head runs.  Returns ``{entry index -> chosen order}``.
        """
        from ..optimizer.planner import plan_with_orders
        from ..optimizer.selectivity import HistogramEstimator

        results: dict[int, list[str]] = {}
        if not entries:
            return results
        featurizer = self.featurizer_for(db_name)
        estimator = HistogramEstimator(featurizer.db)
        prepared = []  # (index, orders, probes, favourite_planned)
        for index, labeled, candidates in entries:
            query = labeled.query
            num_nodes = 2 * query.num_tables - 1
            all_orders = [candidate.tables(query.tables) for candidate in candidates]
            plans = plan_with_orders(query, all_orders, estimator.for_query(query))
            orders: list[list[str]] = []
            probes: list[LabeledQuery] = []
            for order, plan in zip(all_orders, plans):
                if plan is None:
                    continue
                orders.append(order)
                probes.append(
                    LabeledQuery(
                        query=query,
                        plan=plan,
                        node_cardinalities=[0] * num_nodes,
                        node_costs=[0.0] * num_nodes,
                        total_time_ms=0.0,
                    )
                )
            if not probes:
                results[index] = all_orders[0]
            else:
                prepared.append((index, orders, probes, plans[0] is not None))

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
                    shared, _, _ = self.forward_batch(db_name, flat[start: start + _INFERENCE_CHUNK])
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
        scratch: "nn.ScratchArena | None" = None,
    ) -> list[list[BeamCandidate]]:
        """Raw beam candidates for many queries off one shared forward.

        Batches the Trans_Share encode across queries and drives all
        beam searches in lockstep, like :meth:`predict_join_orders` but
        returning the full candidate lists (the sequence-level loss
        needs the illegal ones too).
        """
        if not items:
            return []
        adjacencies = None
        if enforce_legality:
            adjacencies = [self._require_connected(item.query) for item in items]
        with self._infer_lock:
            return self._decode_candidate_chunks(
                db_name, items, beam_width, enforce_legality, adjacencies, scratch=scratch
            )


class InferenceSession:
    """Reusable handle over one ``(model, database)`` pair.

    Created via :meth:`MTMLFQO.inference_session`.  Every call runs
    under the model's inference lock (acquired by the model's own
    inference entry points), so concurrent sessions — and direct model
    calls — serialize against each other, and results are identical to
    calling the model directly.  The lock does *not* cover trainer
    steps: training concurrently with serving is unsupported — retrain
    offline, then :meth:`MTMLFQO.mark_updated`.
    """

    def __init__(self, model: MTMLFQO, db_name: str):
        self.model = model
        self.db_name = db_name
        # Session-private scratch arena for no-tape kernel outputs.  It
        # must never be shared across sessions or hoisted to module
        # scope (the scratch-privacy checker enforces the latter): all
        # uses run under the model's inference lock, so buffers are
        # never written concurrently.
        self.scratch = nn.ScratchArena()
        model.featurizer_for(db_name)  # fail fast on a missing (F) module

    def predict_join_orders(self, items: list[LabeledQuery], **kwargs) -> list[list[str]]:
        """Batched join-order inference; see :meth:`MTMLFQO.predict_join_orders`."""
        kwargs.setdefault("scratch", self.scratch)
        return self.model.predict_join_orders(self.db_name, items, **kwargs)

    def predict_cardinalities(self, items: list[LabeledQuery]) -> list[np.ndarray]:
        return self.model.predict_cardinalities(self.db_name, items)

    def predict_costs(self, items: list[LabeledQuery]) -> list[np.ndarray]:
        return self.model.predict_costs(self.db_name, items)
