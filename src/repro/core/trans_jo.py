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

The decoder is read two ways, one layer body under both.  Training is
teacher forced and batched — :meth:`TransJO.forward` reads every
position of a padded ``(B, m)`` target matrix, so one forward serves a
whole step's labeled queries: their label orders (L.iii) or those plus
every beam candidate of each (Equation 3).  Decoding is incremental —
:meth:`TransJO.decode_step` feeds one new token row per beam and keeps
each beam's self-attention K/V per decoder layer in a cache the beam
driver reorders on every prune, so a step costs one row, not the whole
prefix (DESIGN.md section 2).  Both end in :meth:`TransJO._pointer_logits`,
and the step's logits equal the teacher-forced ones for the same prefix
to rounding.  Like every layer they have one body: handed Tensors they
record tape, handed raw ndarrays (the beam driver, with the per-decode
projections of :meth:`TransJO.project_memory`) they run the in-place
kernels — the same function either way.
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
    def _pointer_logits(self, hidden, memory, pointer_keys, memory_padding_mask):
        """Pointer logits ``h · W S_i``, slot-major ``(B, m, R)``, of the
        ``R`` hidden rows of each sequence; padded table slots -1e9."""
        read = hidden.swapaxes(-1, -2)  # (B, d, R)
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
        *true* prefix ``targets[b, :t]`` (teacher forcing, Section 4.2):
        row b's decoder input is the start token followed by the memory
        rows ``targets[b, :-1]`` names.  Rows are queries, or candidate
        orders over one query's repeated memory.  A row with fewer than m
        tables marks its padded slots in ``memory_padding_mask`` (B, m)
        and pads its targets with any in-range index; padded slots are
        excluded from cross-attention and their logits forced to -1e9,
        and the causal mask keeps those pad timestamps — which the
        caller's loss must not read — from reaching the real ones, so no
        gradient arrives at a pad slot.
        """
        batch = memory.shape[0]
        rows = np.arange(batch)
        x = F.repeat_batch(F.operand(self.start_token, like=memory).reshape(1, 1, -1), batch)
        indices = targets[:, :-1]
        if indices.shape[1]:
            gathered = memory[rows[:, None], indices]  # (B, m - 1, d)
            x = F.concat([x, gathered], axis=1)
        hidden = self.decoder(x, memory, memory_padding_mask=memory_padding_mask)
        logits = self._pointer_logits(hidden, memory, None, memory_padding_mask)
        return logits.swapaxes(-1, -2)

    @shape_spec(inputs={"tokens": "(B, 1, d_model)",
                        "memory": "(B, m, d_model)",
                        "pointer_keys": "(B, m, d_model)",
                        "memory_padding_mask": "(B, m)"},
                out="(B, m)",
                params=("decoder", "pointer_proj"),
                dtypes={"memory_padding_mask": "bool"})
    def decode_step(
        self,
        tokens,
        memory,
        past_kv: list,
        memory_padding_mask: np.ndarray | None = None,
        memory_kv: list | None = None,
        pointer_keys=None,
    ):
        """One incremental decoder step: next-timestamp pointer logits,
        ``(B, m)``, for B sequences at once.

        ``tokens`` is each sequence's newest decoder input, ``(B, 1, d)``:
        the start token at the first step, then the memory row of the
        table it chose last.  ``past_kv`` (from
        ``decoder.empty_past_kv()``) holds the self-attention K/V of the
        earlier inputs per layer and grows by this step's in place; a
        beam driver reorders its rows when beams are pruned.  ``memory``
        is ``(B, m, d)``, one row per sequence, with
        ``memory_padding_mask`` (B, m) True at padded table slots when
        sequences of different table counts share the batch.
        ``memory_kv``/``pointer_keys`` are the batched projections of
        ``memory`` (:meth:`project_memory`, padded per sequence by the
        beam driver); given both, ``memory`` may be None.
        """
        hidden = self.decoder(
            tokens,
            memory,
            memory_padding_mask=memory_padding_mask,
            memory_kv=memory_kv,
            past_kv=past_kv,
        )
        logits = self._pointer_logits(hidden, memory, pointer_keys, memory_padding_mask)
        return logits.reshape(logits.shape[0], -1)

    def project_memory(self, memory: np.ndarray):
        """Per-decode projections of (1, N, d) encoder memory rows.

        Returns ``(memory_kv, pointer_keys)`` as raw ndarrays: the
        per-layer cross-attention K/V pairs plus the pointer keys
        ``W S_i`` — all the projections of the memory that every decoder
        step would otherwise recompute.  The beam driver calls it once
        per decode, on every query's rows stacked, and gathers each
        step group's padded batch from the result.
        """
        return self.decoder.project_memory_kv(memory), self.pointer_proj(memory)
