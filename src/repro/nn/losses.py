"""The q-error metric and the token-level cross-entropy reference.

- ``q_error``: the paper's CardEst/CostEst criterion (Section 3.2,
  L.i/L.ii), ``max(pred/true, true/pred)``, as the evaluation metric;
- ``cross_entropy``: token-level cross-entropy for join-order
  prediction (L.iii), one sequence at a time.

The batched training losses live in :mod:`repro.core.losses`.
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor

__all__ = ["q_error", "cross_entropy"]


def q_error(pred: np.ndarray, true: np.ndarray, floor: float = 1.0) -> np.ndarray:
    """Elementwise q-error ``max(pred/true, true/pred)`` (always >= 1).

    Both inputs are clamped below at ``floor`` (cardinalities of zero are
    conventionally treated as one, following the CardEst literature).
    """
    pred = np.maximum(np.asarray(pred, dtype=np.float64), floor)
    true = np.maximum(np.asarray(true, dtype=np.float64), floor)
    return np.maximum(pred / true, true / pred)


def cross_entropy(logits: Tensor, target_index: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Mean token-level cross entropy.

    ``logits`` has shape (..., n_classes) and ``target_index`` matches its
    leading shape.  ``mask`` (optional, same leading shape) selects which
    positions contribute; it must select at least one position.
    """
    log_probs = F.log_softmax(logits, axis=-1)
    target_index = np.asarray(target_index, dtype=np.int64)
    onehot = F.one_hot(target_index, logits.shape[-1])
    picked = (log_probs * Tensor(onehot)).sum(axis=-1)
    if mask is not None:
        mask = np.asarray(mask, dtype=np.float64)
        count = mask.sum()
        if count == 0:
            raise ValueError("cross_entropy mask selects no positions")
        return -(picked * Tensor(mask)).sum() * (1.0 / count)
    return -picked.mean()
