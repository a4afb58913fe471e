"""Configuration of the federated serving fleet."""

from __future__ import annotations

from dataclasses import dataclass

from ..core.encoders import EncoderBudget
from ..serve.adaptation import RoundConfig

__all__ = ["FleetConfig"]


@dataclass
class FleetConfig(RoundConfig):
    """Knobs shared by :class:`TenantNode` and :class:`FleetCoordinator`:
    every tenant's :class:`~repro.serve.adaptation.RoundConfig` (each
    tenant's local fine-tune and gate, the coordinator's poll loop and
    ``round-NNNN.npz`` checkpoint directory) plus the fleet-only fields.

    Attributes
    ----------
    min_participants:
        How many tenants must clear the ``min_new_experience`` bar
        before the coordinator's background loop fires a round.
    encoder:
        Featurizer (F) training budget for :meth:`FleetCoordinator.onboard`.
    """

    min_participants: int = 1
    encoder: EncoderBudget = EncoderBudget(15, 6)

    def __post_init__(self):
        super().__post_init__()
        if self.min_participants < 1:
            raise ValueError(f"min_participants must be >= 1, got {self.min_participants}")
