"""(F.ii) Per-table encoders ``Enc_i`` and the per-DB featurization module.

Each table gets a small transformer encoder over its filter-predicate
tokens; the pooled output ``E(f(T_i))`` represents "the distribution of
T_i after applying f(T_i)" (Section 3.2).  Per Algorithm 1 line 4, every
``Enc_i`` is trained *separately* on a single-table CardEst task: given
the filter predicate tokens, predict the log-selectivity of the filter.

``DatabaseFeaturizer`` bundles everything database-specific: the
predicate featurizer, a per-DB column embedding, one ``Enc_i`` per
table, and the selectivity training head.  This is the (F) module the
paper retrains per database while (S)/(T) transfer.

The encoders are built from ``repro.nn`` layers, each of which has one
body (DESIGN.md section 11): under serving's ``nn.no_grad()`` that body
is handed raw ndarrays and runs the in-place kernels, under training it
is handed Tensors and records tape — the same function bit for bit, so
nothing here needs to know which it is.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .. import nn
from ..sql.predicates import Conjunction
from ..sql.query import Query
from ..storage.catalog import Database
from ..workload.generator import generate_single_table_queries
from .config import ModelConfig
from .featurize import PredicateFeaturizer

__all__ = ["TableEncoder", "DatabaseFeaturizer", "EncoderBudget", "FeatureCache"]


class FeatureCache:
    """Bounded, thread-safe LRU over (F) outputs.

    A :class:`DatabaseFeaturizer` owns two: its node contents and its
    plan encodings (see :meth:`repro.core.model.MTMLFQO.encode_query`).
    The encoding cache holds two kinds of entry under one bound: a
    plan's, keyed by ``plan_signature(plan)``, so two distinct but
    node-for-node identical plans (re-labeled copies of a query) share
    one entry; and a cost-rerank probe's, keyed by
    ``("probe", query_probe_key(query), order)``, so a query decoded
    again finds its probes without planning them.  The size bound keeps
    inference-time probes from growing the cache without limit.

    Every model the featurizer is attached to — the live model, a
    fine-tune candidate, a fleet round's private copy — reads and fills
    the same cache, possibly from several threads at once, so
    :meth:`get` / :meth:`put` / :meth:`clear` each hold the cache's own
    lock (a miss computed twice concurrently stores equal values).
    Entries are read-only arrays for the same reason.
    """

    def __init__(self, maxsize: int):
        if maxsize < 1:
            raise ValueError(f"cache size must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()  # guarded-by: _lock

    def get(self, key: tuple):
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class TableEncoder(nn.Module):
    """``Enc_i``: transformer encoder over predicate tokens for one table."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.input_proj = nn.Linear(config.predicate_feature_dim + config.d_model // 2, config.d_model, rng=rng)
        self.encoder = nn.TransformerEncoder(
            config.d_model,
            config.num_heads,
            config.encoder_layers,
            ff_dim=config.ff_dim,
            rng=rng,
        )
        # Selectivity head used only for Enc_i's own single-table training.
        self.selectivity_head = nn.MLP([config.d_model, config.d_model, 1], rng=rng)

    def forward(self, tokens: np.ndarray, column_vectors: nn.Tensor) -> nn.Tensor:
        """Encode (L, feat_dim) predicate tokens -> (1, d_model) summary.

        ``column_vectors`` is (L, d_model // 2): the per-DB learned
        embedding of each token's column.
        """
        token_tensor = nn.Tensor(tokens[None, :, :])  # (1, L, F)
        col = column_vectors.reshape(1, column_vectors.shape[0], column_vectors.shape[1])
        x = nn.functional.concat([token_tensor, col], axis=2)
        x = self.input_proj(x)
        hidden = self.encoder(x)  # (1, L, d)
        return hidden[:, 0, :]  # summary token

    def predict_log_selectivity(self, tokens: np.ndarray, column_vectors: nn.Tensor) -> nn.Tensor:
        """Log-selectivity (<= 0) of the filter; Enc_i's training target."""
        summary = self.forward(tokens, column_vectors)
        raw = self.selectivity_head(summary).reshape(1).clip(-30.0, 30.0)
        # Selectivity lies in (0, 1]: parameterize log-sel = -softplus(raw),
        # which is always <= 0 and unbounded below.
        return -(raw.exp() + 1.0).log()


class DatabaseFeaturizer(nn.Module):
    """The complete (F) module for one database.

    Holds the database-specific knowledge: the statistics-based
    predicate featurizer, learned column embeddings, and one trained
    ``Enc_i`` per table.  Produces ``E(f(T_i))`` encodings consumed by
    the node assembler in :mod:`repro.core.model`, and owns their
    caches: ``encoding_cache`` (one ``EncodedQuery`` per structural
    plan or rerank probe) and ``node_cache`` (one content vector per
    scan filter or join-key set), each bounded by its config's
    ``feature_cache_size``.
    Their entries are functions of this featurizer's weights alone, so
    every model it is attached to shares them, and only a change of
    those weights clears them — :meth:`train_encoders`,
    :meth:`load_state_dict` — besides an explicit :meth:`clear_caches`
    (which ``MTMLFQO.attach_featurizer`` / ``clear_cache`` call).
    """

    def __init__(self, db: Database, config: ModelConfig | None = None, seed: int | None = None):
        super().__init__()
        self.db = db
        self.config = config or ModelConfig()
        seed = self.config.seed if seed is None else seed
        rng = np.random.default_rng(seed)
        self.predicates = PredicateFeaturizer(db, self.config)
        self.column_embedding = nn.Embedding(
            self.predicates.num_columns + 1, self.config.d_model // 2, rng=rng
        )
        self.encoders = {
            table: TableEncoder(self.config, rng) for table in db.table_names
        }
        self.encoding_cache = FeatureCache(self.config.feature_cache_size)
        self.node_cache = FeatureCache(self.config.feature_cache_size)

    def clear_caches(self) -> None:
        """Drop every cached output of this featurizer."""
        self.encoding_cache.clear()
        self.node_cache.clear()

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        super().load_state_dict(state)
        self.clear_caches()

    # Parameter traversal of the ``encoders`` dict is handled by the
    # ``Module`` base class, which walks dict-valued attributes in
    # sorted-key order.

    def schema_signature(self) -> tuple:
        """Structural identity of the (F) module's learnable layout.

        Checkpoints persist this signature: a featurizer state dict only
        loads into a featurizer built over a schema with the same tables
        and per-table column lists (column embeddings are indexed by the
        schema-derived vocabulary, so any drift would silently permute
        them).
        """
        return self.predicates.schema_signature()

    # ------------------------------------------------------------------
    def encode_filter(self, conjunction: Conjunction) -> nn.Tensor:
        """``E(f(T_i))``: (1, d_model) encoding of a filtered table."""
        tokens, column_ids = self.predicates.featurize_conjunction(conjunction)
        column_vectors = self.column_embedding(column_ids)
        return self.encoders[conjunction.table](tokens, column_vectors)

    def predict_filter_selectivity(self, conjunction: Conjunction) -> nn.Tensor:
        """Log-selectivity prediction (Enc_i's training task)."""
        tokens, column_ids = self.predicates.featurize_conjunction(conjunction)
        column_vectors = self.column_embedding(column_ids)
        return self.encoders[conjunction.table].predict_log_selectivity(tokens, column_vectors)

    # ------------------------------------------------------------------
    def train_encoders(
        self,
        queries_per_table: int = 40,
        epochs: int = 30,
        seed: int = 0,
        verbose: bool = False,
    ) -> dict[str, float]:
        """Algorithm 1 line 4: train each ``Enc_i`` on single-table CardEst.

        Generates filter-only queries per table, computes true
        selectivities by evaluating the filters, and regresses the
        log-selectivity with an absolute-log (q-error) loss.  Returns the
        final mean loss per table.
        """
        if queries_per_table < 1 or epochs < 1:
            raise ValueError(
                f"queries_per_table and epochs must be >= 1, got {queries_per_table} and {epochs}"
            )
        losses: dict[str, float] = {}
        for table_index, table in enumerate(self.db.table_names):
            queries = generate_single_table_queries(
                self.db, table, queries_per_table, seed=seed + table_index
            )
            examples = []
            base = self.db.table(table)
            rows = max(base.num_rows, 1)
            for query in queries:
                conj = query.filter_for(table)
                true_rows = int(conj.evaluate(base).sum())
                selectivity = max(true_rows / rows, 1.0 / (10.0 * rows))
                examples.append((conj, np.log(selectivity)))
            encoder = self.encoders[table]
            params = encoder.parameters() + self.column_embedding.parameters()
            optimizer = nn.Adam(params, lr=self.config.learning_rate)
            final = 0.0
            for _ in range(epochs):
                total = 0.0
                for conj, target in examples:
                    optimizer.zero_grad()
                    pred = self.predict_filter_selectivity(conj)
                    loss = (pred - nn.Tensor(np.array([target]))).abs().mean()
                    loss.backward()
                    nn.clip_grad_norm(params, self.config.grad_clip)
                    optimizer.step()
                    total += loss.item()
                final = total / max(len(examples), 1)
            losses[table] = final
            if verbose:
                print(f"  Enc[{table}]: final |log sel| error {final:.3f}")
        self.clear_caches()
        return losses


@dataclass(frozen=True)
class EncoderBudget:
    """How much single-table CardEst training a fresh (F) module gets
    (Algorithm 1 line 4): ``queries_per_table`` filter-only queries per
    table, ``epochs`` passes over them."""

    queries_per_table: int
    epochs: int

    def __post_init__(self):
        if self.queries_per_table < 1 or self.epochs < 1:
            raise ValueError(
                f"an encoder budget needs >= 1 query per table and >= 1 epoch, "
                f"got {self.queries_per_table} and {self.epochs}"
            )

    def train(self, db: Database, config: ModelConfig, seed: int = 0, verbose: bool = False) -> DatabaseFeaturizer:
        """A new :class:`DatabaseFeaturizer` over ``db``, its encoders trained."""
        featurizer = DatabaseFeaturizer(db, config)
        featurizer.train_encoders(self.queries_per_table, self.epochs, seed=seed, verbose=verbose)
        return featurizer
