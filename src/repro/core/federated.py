"""Federated MLA — the paper's Section 7 research opportunity.

The paper's cloud workflow trains MTMLF on many users' databases, and
explicitly proposes federated learning so the provider never sees raw
data: users compute gradients locally and share only model updates
("anonymous training data or gradients of model parameters").

``FederatedTrainer`` implements FedAvg (McMahan et al.) over the shared
(S) and task (T) modules:

1. the server broadcasts the current (S)/(T) weights to every client;
2. each client runs local epochs of the Equation 1 criterion on its own
   labeled workload — raw tuples and queries never leave the client;
3. the server averages the returned weights, weighted by client example
   counts.

Per-database featurizers (F) are trained entirely client-side and are
never shared — consistent with the MLA design (all database-specific
knowledge stays in (F)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..storage.catalog import Database
from ..workload.labeler import LabeledQuery
from .config import ModelConfig
from .encoders import DatabaseFeaturizer, EncoderBudget
from .meta import transfer
from .model import MTMLFQO
from .trainer import JointTrainer

__all__ = [
    "AggregationError",
    "FederatedClient",
    "FederatedTrainer",
    "FederatedConfig",
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


@dataclass
class FederatedConfig:
    """Knobs for federated pre-training."""

    rounds: int = 5
    local_epochs: int = 2
    batch_size: int = 16
    encoder: EncoderBudget = EncoderBudget(15, 6)
    seed: int = 0
    verbose: bool = False


@dataclass
class FederatedClient:
    """One participating database and its private labeled workload."""

    db: Database
    workload: list[LabeledQuery]
    featurizer: DatabaseFeaturizer | None = None

    @property
    def num_examples(self) -> int:
        return len(self.workload)


class FederatedTrainer:
    """FedAvg over the (S)/(T) modules of MTMLF-QO."""

    def __init__(self, model_config: ModelConfig | None = None, fed_config: FederatedConfig | None = None):
        self.model_config = model_config or ModelConfig()
        self.fed_config = fed_config or FederatedConfig()
        self.server_model = MTMLFQO(self.model_config)
        self.round_losses: list[float] = []
        # Per-client Adam moments (name-keyed state dicts), carried
        # across rounds: each round's local pass resumes the client's
        # own optimizer trajectory instead of re-warming from zeroed
        # moments on a freshly built trainer.
        self._client_optimizer_state: dict[str, dict] = {}

    # ------------------------------------------------------------------
    def prepare_client(self, client: FederatedClient) -> None:
        """Client-side: train the private featurization module (F) unless
        the client brings one, and attach it to the server model."""
        cfg = self.fed_config
        encoder = cfg.encoder if client.featurizer is None else client.featurizer
        # The server model needs the featurizer handle to *evaluate* on
        # this client; in a real deployment evaluation also happens
        # client-side and only metrics travel.
        transfer(self.server_model, client.db, encoder, seed=cfg.seed, verbose=cfg.verbose)
        client.featurizer = self.server_model.featurizer_for(client.db.name)

    def _client_update(self, client: FederatedClient, seed: int) -> tuple[dict, float]:
        """One client's local training pass; returns (weights, mean loss)."""
        local = MTMLFQO(self.model_config)
        local.attach_featurizer(client.db.name, client.featurizer)
        local.load_state_dict(self.server_model.state_dict())
        trainer = JointTrainer(
            local, optimizer_state=self._client_optimizer_state.get(client.db.name)
        )
        result = trainer.train(
            [(client.db.name, item) for item in client.workload],
            epochs=self.fed_config.local_epochs,
            batch_size=self.fed_config.batch_size,
            seed=seed,
            verbose=False,
        )
        self._client_optimizer_state[client.db.name] = trainer.optimizer.state_dict()
        return shared_state_dict(local), result.final_loss

    def train(self, clients: list[FederatedClient]) -> list[float]:
        """Run federated rounds; returns the per-round mean client loss."""
        if not clients:
            raise ValueError("no federated clients")
        for client in clients:
            if not client.workload:
                raise ValueError(f"client {client.db.name!r} has an empty workload")
            self.prepare_client(client)

        for round_index in range(self.fed_config.rounds):
            states: list[dict] = []
            weights: list[float] = []
            losses: list[float] = []
            for i, client in enumerate(clients):
                state, loss = self._client_update(
                    client, seed=self.fed_config.seed + round_index * 97 + i
                )
                states.append(state)
                weights.append(float(client.num_examples))
                losses.append(loss)
            self._aggregate(states, weights)
            round_loss = float(np.average(losses, weights=weights))
            self.round_losses.append(round_loss)
            if self.fed_config.verbose:
                print(f"  federated round {round_index + 1}/{self.fed_config.rounds}: loss {round_loss:.4f}")
        return self.round_losses

    def _aggregate(self, states: list[dict], weights: list[float]) -> None:
        """Server-side FedAvg over shared (S)/(T) parameters only.

        Keys are selected *by name* against the server model's shared
        parameter set (:func:`aggregate_shared_states`): per-client
        featurizer parameters can never be averaged across clients with
        different schemas, and a missing or shape-mismatched shared key
        raises :class:`AggregationError` instead of corrupting the merge.
        """
        merged = aggregate_shared_states(
            states, weights, reference=self.server_model.state_dict()
        )
        self.server_model.load_state_dict(merged)
        self.server_model.mark_updated()
