"""The fleet's FedAvg merge (the paper's Section 7).

The paper's cloud workflow trains MTMLF on many users' databases and
proposes federated learning so the provider never sees raw data: users
train locally and share only model updates.  The live FedAvg loop is
:class:`repro.federation.FleetCoordinator`; this module holds the merge,
:func:`aggregate_shared_states`: an example-weighted mean of (S)/(T)
vectors (each a model's :attr:`~repro.core.model.MTMLFQO.weights`).

A model's vector holds its (S)/(T) parameters and nothing else — no
per-database featurizer (F) parameter is in it — so what a tenant ships
and what the merge averages is the privacy boundary by construction:
all database-specific knowledge stays with its tenant.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AggregationError", "aggregate_shared_states"]


class AggregationError(ValueError):
    """A FedAvg merge could not be performed safely: no states, a weight
    count or sign that does not fit them, or vectors of different shapes."""


def aggregate_shared_states(states: list[np.ndarray], weights: list[float]) -> np.ndarray:
    """Example-weighted FedAvg over (S)/(T) vectors.

    Sums ``state * (weight / total)`` over the states in the order
    given, elementwise as a per-parameter loop would, so the merged
    vector is bitwise that loop's.  A state whose shape differs from the
    first one's raises :class:`AggregationError` naming the client; the
    vectors are never broadcast against each other.
    """
    if not states:
        raise AggregationError("no client states to aggregate")
    if len(states) != len(weights):
        raise AggregationError(
            f"{len(states)} client states but {len(weights)} weights"
        )
    if any(weight <= 0 for weight in weights):
        raise AggregationError(f"client weights must be positive, got {weights}")
    shape = np.shape(states[0])
    for client_index, state in enumerate(states):
        if np.shape(state) != shape:
            raise AggregationError(
                f"client {client_index} vector has shape {np.shape(state)}, expected {shape}"
            )
    total = float(sum(weights))
    merged = np.multiply(states[0], weights[0] / total)
    contribution = np.empty_like(merged)
    for state, weight in zip(states[1:], weights[1:]):
        np.multiply(state, weight / total, out=contribution)
        merged += contribution
    return merged
