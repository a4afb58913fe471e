"""The fleet's FedAvg merge and privacy filter (the paper's Section 7).

The paper's cloud workflow trains MTMLF on many users' databases and
proposes federated learning so the provider never sees raw data: users
train locally and share only model updates.  The live FedAvg loop is
:class:`repro.federation.FleetCoordinator`; this module holds the two
pieces of it that touch parameters:

- :func:`shared_state_dict` is the privacy filter.  It selects a
  model's shared (S)/(T) parameters by name
  (:data:`SHARED_MODULE_PREFIXES`), the only state a tenant ships;
- :func:`aggregate_shared_states` is the merge: an example-weighted
  mean over those parameters, raising :class:`AggregationError` on a
  missing or mismatched one.

Per-database featurizers (F) never pass either function: all
database-specific knowledge stays with its tenant.
"""

from __future__ import annotations

import numpy as np

from .model import MTMLFQO

__all__ = [
    "AggregationError",
    "SHARED_MODULE_PREFIXES",
    "aggregate_shared_states",
    "shared_state_dict",
]

# The modules whose parameters are shared across the federation: the
# representation module (S) and the task modules (T).  Everything else —
# in particular per-database featurizer (F) parameters — is private to
# its client and must never travel or be averaged.
SHARED_MODULE_PREFIXES = ("shared.", "card_head.", "cost_head.", "trans_jo.")


class AggregationError(ValueError):
    """A FedAvg merge could not be performed safely: a client state is
    missing a shared (S)/(T) parameter, a shape disagrees across clients,
    or the inputs are malformed (no states, weight mismatch)."""


def shared_state_dict(model: MTMLFQO) -> dict[str, np.ndarray]:
    """The name-keyed (S)/(T) parameters of ``model`` — the only state a
    federation participant is allowed to ship.

    Selected by parameter-name prefix (:data:`SHARED_MODULE_PREFIXES`),
    so even a state dict that happened to contain featurizer entries
    could never leak them through this function.
    """
    return {
        name: value
        for name, value in model.state_dict().items()
        if name.startswith(SHARED_MODULE_PREFIXES)
    }


def aggregate_shared_states(
    states: list[dict],
    weights: list[float],
    reference: dict | None = None,
) -> dict[str, np.ndarray]:
    """Example-weighted FedAvg over the shared (S)/(T) parameters only.

    ``reference`` (defaults to ``states[0]``) fixes the shared key set
    and shapes being merged — typically the server model's state dict.
    Only parameters whose names carry a :data:`SHARED_MODULE_PREFIXES`
    prefix are averaged; any other key a client state contains (e.g. a
    per-database featurizer parameter) is ignored, never merged — the
    "(F) is never shared" contract.  A client state *missing* a shared
    key, or carrying one with a mismatched shape, raises
    :class:`AggregationError` naming the client and parameter.
    """
    if not states:
        raise AggregationError("no client states to aggregate")
    if len(states) != len(weights):
        raise AggregationError(
            f"{len(states)} client states but {len(weights)} weights"
        )
    if any(weight <= 0 for weight in weights):
        raise AggregationError(f"client weights must be positive, got {weights}")
    reference = states[0] if reference is None else reference
    shared_names = sorted(
        name for name in reference if name.startswith(SHARED_MODULE_PREFIXES)
    )
    if not shared_names:
        raise AggregationError(
            "reference state holds no shared (S)/(T) parameters "
            f"(expected names starting with {SHARED_MODULE_PREFIXES})"
        )
    total = float(sum(weights))
    merged: dict[str, np.ndarray] = {}
    for name in shared_names:
        expected_shape = np.asarray(reference[name]).shape
        accumulator: np.ndarray | None = None
        for client_index, (state, weight) in enumerate(zip(states, weights)):
            if name not in state:
                raise AggregationError(
                    f"client {client_index} state is missing shared parameter {name!r}"
                )
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != expected_shape:
                raise AggregationError(
                    f"shape mismatch for shared parameter {name!r}: "
                    f"client {client_index} has {value.shape}, expected {expected_shape}"
                )
            contribution = value * (weight / total)
            accumulator = contribution if accumulator is None else accumulator + contribution
        merged[name] = accumulator
    return merged
