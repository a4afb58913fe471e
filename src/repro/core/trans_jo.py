"""(T.iii) ``Trans_JO``: the join-order transformer decoder.

Formulates JoinSel as seq2seq (Section 4.2): ``Trans_Share``'s outputs
for the query's single tables, (S_1..S_m), act as the encoder memory;
the decoder emits one table per timestamp.

Output parameterization — pointer attention.  The paper's single-DB
formulation outputs a multinoulli over the DB's n tables; a fixed-size
output head would tie the decoder to one DB's table vocabulary and break
the cross-DB transfer that MLA requires.  We therefore emit logits by
dot-product attention of the decoder state against the table
representations themselves (a pointer network): position i's logit is
``h_t · W S_i``.  Over a single DB this is equivalent (positions map
1:1 to tables); across DBs it is what "the task-specific module learns
how to use the shared representation" demands.  Recorded as a
documented design choice in DESIGN.md (section 1).

There is one decoder read, :meth:`TransJO._slot_logits`: a ``(B, T)``
prefix matrix becomes the decoder input (start token, then the memory
rows it names) and the hidden states become pointer logits, padded table
slots masked.  Its two callers differ only in which positions they read.
Training is teacher forced and batched — :meth:`TransJO.forward` reads
every position of a padded ``(B, m)`` target matrix, so one forward
serves a whole step's labeled queries: their label orders (L.iii) or
those plus every beam candidate of each (Equation 3).  Decoding reads each row's last position —
:meth:`TransJO.step_logits_batch` expands many beam prefixes, potentially
spanning several queries, per call (DESIGN.md section 2).  Like every
layer it has one body: handed Tensors it records tape, handed raw
ndarrays (the beam driver, with the per-decode projections of
:meth:`TransJO.project_memory`) it runs the in-place kernels — the same
function either way.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.spec import shape_spec
from .config import ModelConfig

__all__ = ["TransJO"]


class TransJO(nn.Module):
    """Transformer decoder with pointer output over query tables."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator | None = None):
        super().__init__()
        self.config = config
        rng = rng or np.random.default_rng(config.seed)
        self.start_token = nn.Parameter(rng.normal(0.0, 0.1, size=(config.d_model,)))
        self.decoder = nn.TransformerDecoder(
            config.d_model,
            config.num_heads,
            config.decoder_layers,
            ff_dim=config.ff_dim,
            rng=rng,
        )
        self.pointer_proj = nn.Linear(config.d_model, config.d_model, bias=False, rng=rng)
        # Pointer-logit scale; same value every call computed, hoisted.
        self.logit_scale = 1.0 / np.sqrt(config.d_model)

    # ------------------------------------------------------------------
    def _slot_logits(
        self,
        memory,
        indices: np.ndarray,
        lengths: np.ndarray | None,
        memory_padding_mask: np.ndarray | None,
        memory_kv: list | None = None,
        pointer_keys=None,
        scratch=None,
        start_block=None,
    ):
        """The one decoder read: a ``(B, T)`` prefix matrix in, pointer
        logits out, slot-major ``(B, m, R)``.

        Row b's decoder input is the start token followed by the memory
        rows ``indices[b]`` names.  ``lengths`` None reads every position
        (R = T + 1, teacher forcing); otherwise row b is read at its own
        last real step ``lengths[b]`` (R = 1, a beam step).  Table slots
        where ``memory_padding_mask`` is True are excluded from
        cross-attention and their logits forced to -1e9.
        """
        batch = memory.shape[0]
        rows = np.arange(batch)
        x = start_block
        if x is None:
            x = F.repeat_batch(F.operand(self.start_token, like=memory).reshape(1, 1, -1), batch)
        if indices.shape[1]:
            gathered = memory[rows[:, None], indices]  # (B, T, d)
            x = F.concat([x, gathered], axis=1)
        hidden = self.decoder(
            x,
            memory,
            memory_padding_mask=memory_padding_mask,
            memory_kv=memory_kv,
            scratch=scratch,
            tag="jo",
        )
        if lengths is None:
            read = hidden.swapaxes(-1, -2)                      # (B, d, T + 1)
        else:
            read = hidden[rows, lengths].reshape(batch, -1, 1)  # (B, d, 1)
        keys = pointer_keys if pointer_keys is not None else self.pointer_proj(memory)
        logits = (keys @ read) * self.logit_scale
        if memory_padding_mask is not None:
            logits = F.masked_fill(logits, memory_padding_mask[:, :, None], -1e9)
        return logits

    @shape_spec(inputs={"memory": "(B, m, d_model)", "targets": "(B, m)"},
                out="(B, m, m)",
                params=("start_token", "decoder", "pointer_proj"),
                dtypes={"targets": "int64"})
    def forward(self, memory, targets: np.ndarray, memory_padding_mask: np.ndarray | None = None):
        """Teacher-forced logits for a batch of whole orders, (B, m, m).

        ``[b, t]`` holds the logits for timestamp t of row b given its
        *true* prefix ``targets[b, :t]`` (teacher forcing, Section 4.2).
        Rows are queries, or candidate orders over one query's repeated
        memory.  A row with fewer than m tables marks its padded slots in
        ``memory_padding_mask`` (B, m) and pads its targets with any
        in-range index; the causal mask keeps those pad timestamps — which
        the caller's loss must not read — from reaching the real ones, so
        no gradient arrives at a pad slot.
        """
        logits = self._slot_logits(memory, targets[:, :-1], None, memory_padding_mask)
        return logits.swapaxes(-1, -2)

    @shape_spec(inputs={"memory": "(B, m, d_model)"},
                out="(B, m)",
                params=("start_token", "decoder", "pointer_proj"))
    def step_logits_batch(
        self,
        memory,
        prefixes,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv: list | None = None,
        pointer_keys=None,
        scratch=None,
        start_block=None,
    ):
        """Next-timestamp logits for a whole batch of prefixes at once.

        ``memory`` is (B, m, d): one row of single-table representations
        per prefix (rows may repeat when several beams share one query).
        ``prefixes`` may be a ragged list of lists — shorter rows are
        padded (the causal self-attention mask keeps pad slots from
        influencing the read position) and each row's logits are taken at
        its own last real timestamp — or, from the lockstep beam driver
        where every row has the same length, the dense ``(B, t)`` int64
        matrix ``pad_index_sequences`` would build.
        ``memory_padding_mask`` is (B, m) boolean, True at padded table
        slots when queries of different table counts share the batch.
        The remaining arguments carry what one decode can reuse across
        its steps: ``memory_kv``/``pointer_keys`` are the batched
        projections of ``memory`` (see :meth:`project_memory` and
        :meth:`concat_memory_kv`; projected here when omitted),
        ``start_block`` the broadcast start token (a function of the
        batch size only), ``scratch`` the session's kernel buffer arena.

        Returns (B, m) pointer logits.
        """
        batch, m, _ = memory.shape
        if isinstance(prefixes, np.ndarray):
            indices = prefixes
            lengths = np.full(batch, indices.shape[1], dtype=np.int64)
        else:
            if len(prefixes) != batch:
                raise ValueError(f"{len(prefixes)} prefixes for a memory batch of {batch}")
            indices, lengths = F.pad_index_sequences(prefixes)
        logits = self._slot_logits(
            memory, indices, lengths, memory_padding_mask,
            memory_kv, pointer_keys, scratch, start_block,
        )
        return logits.reshape(batch, m)

    def project_memory(self, memory: nn.Tensor, kv_cache: "nn.KVCache | None" = None):
        """Per-decode projections of one (1, m, d) encoder memory.

        Returns ``(memory_kv, pointer_keys)`` as raw ndarrays: the
        per-layer cross-attention K/V pairs plus the pointer keys
        ``W S_i`` — all the projections of the memory that every decoder
        step would otherwise recompute.  With ``kv_cache`` (a
        :class:`nn.KVCache` bound to exactly this memory) the projection
        runs once per decode; a cache bound to a different memory is a
        bug upstream and is rejected loudly.
        """
        def project():
            return self.decoder.project_memory_kv(memory.data), self.pointer_proj(memory.data)

        if kv_cache is None:
            return project()
        if not kv_cache.bound_to(memory):
            raise ValueError("KV cache is bound to a different encoder memory than the one being decoded")
        return kv_cache.get_or_project("transjo.memory_kv", project)

    @staticmethod
    def concat_memory_kv(per_query, counts: list[int]):
        """Assemble batched projections from per-query cached ones.

        ``per_query[i]`` is :meth:`project_memory` output for query i,
        ``counts[i]`` its number of active beams.  Each query's (1, ...)
        projections are broadcast to its beam count and concatenated —
        bit-identical to projecting the batched memory directly, because
        numpy's batched matmul computes each row as the same 2D product
        the single-row projection performs.
        """
        # ``concatenate`` over stride-0 broadcast views can emit a
        # non-C-contiguous result; force C order so the assembled arrays
        # have exactly the strides of directly-projected ones (BLAS
        # rounding depends on operand layout, and parity is bitwise).
        def broadcast_concat(arrays):
            return np.ascontiguousarray(
                np.concatenate(
                    [np.broadcast_to(a, (n,) + a.shape[1:]) for a, n in zip(arrays, counts)],
                    axis=0,
                )
            )

        num_layers = len(per_query[0][0])
        memory_kv = [
            (
                broadcast_concat([kv[layer][0] for kv, _ in per_query]),
                broadcast_concat([kv[layer][1] for kv, _ in per_query]),
            )
            for layer in range(num_layers)
        ]
        pointer_keys = broadcast_concat([keys for _, keys in per_query])
        return memory_kv, pointer_keys
