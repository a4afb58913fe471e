"""Evaluation metrics: q-error statistics and improvement ratios."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.losses import q_error

__all__ = ["QErrorStats", "qerror_stats", "improvement_ratio"]


@dataclass
class QErrorStats:
    """Median / max / mean q-error — the columns of the paper's Table 1."""

    median: float
    max: float
    mean: float
    count: int

    def as_row(self) -> tuple[float, float, float]:
        return (self.median, self.max, self.mean)

    def __str__(self) -> str:
        return f"median {self.median:.2f}  max {self.max:.2f}  mean {self.mean:.2f}"


def qerror_stats(predictions, truths, floor: float = 1.0) -> QErrorStats:
    """Aggregate q-errors of aligned prediction/truth arrays."""
    predictions = np.asarray(predictions, dtype=np.float64).reshape(-1)
    truths = np.asarray(truths, dtype=np.float64).reshape(-1)
    if predictions.shape != truths.shape:
        raise ValueError(f"shape mismatch {predictions.shape} vs {truths.shape}")
    if predictions.size == 0:
        raise ValueError("empty evaluation set")
    errors = q_error(predictions, truths, floor=floor)
    return QErrorStats(
        median=float(np.median(errors)),
        max=float(errors.max()),
        mean=float(errors.mean()),
        count=int(errors.size),
    )


def improvement_ratio(baseline_time: float, time: float) -> float:
    """The paper's "overall improvement ratio": (base - t) / base."""
    if baseline_time <= 0:
        raise ValueError("baseline time must be positive")
    return (baseline_time - time) / baseline_time
