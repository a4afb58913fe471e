"""Configuration of the federated serving fleet."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FleetConfig"]


@dataclass
class FleetConfig:
    """Knobs shared by :class:`TenantNode` and :class:`FleetCoordinator`.

    Attributes
    ----------
    fine_tune_epochs / batch_size / learning_rate / seed:
        Passed to each tenant's private :class:`JointTrainer` during the
        local phase of a round (``None`` learning rate keeps the model
        config's).
    min_new_experience:
        Fresh-experience bar a tenant must clear to *train* in a round.
        Tenants below it skip the local phase (they still receive the
        merged model through their gate) — the asynchronous-FedAvg rule
        that lets rounds proceed with whichever tenants have traffic.
    min_participants:
        How many tenants must clear the bar before the coordinator's
        background loop fires a round.
    validation_fraction:
        Share of each tenant's experience snapshot held out from
        fine-tuning and used by its regression gate.
    regret_tolerance_ms:
        Slack a tenant's gate allows the merged model over its live one.
        0 is the strict "must not worsen" rule.
    max_intermediate_rows:
        Execution bound when gates replay validation orders.
    checkpoint_dir:
        Where the coordinator persists each global round's checkpoint; a
        private temp dir (removed on ``shutdown``) when None.
    poll_interval_s:
        How often the coordinator's background loop rechecks readiness.
    encoder_queries_per_table / encoder_epochs:
        Featurizer (F) training budget for :meth:`FleetCoordinator.onboard`.
    revert_on_unanimous_rejection:
        When every gated tenant rejects a round's merged model, restore
        the previous global state so a poisoned round cannot linger as
        the next round's starting point (or be handed to onboarding
        tenants).
    """

    fine_tune_epochs: int = 4
    batch_size: int = 8
    learning_rate: float | None = None
    seed: int = 0
    min_new_experience: int = 8
    min_participants: int = 1
    validation_fraction: float = 0.25
    regret_tolerance_ms: float = 0.0
    max_intermediate_rows: int = 2_000_000
    checkpoint_dir: str | None = None
    poll_interval_s: float = 0.25
    encoder_queries_per_table: int = 15
    encoder_epochs: int = 6
    revert_on_unanimous_rejection: bool = True

    def __post_init__(self):
        if self.fine_tune_epochs < 1:
            raise ValueError(f"fine_tune_epochs must be >= 1, got {self.fine_tune_epochs}")
        if self.min_new_experience < 1:
            raise ValueError(f"min_new_experience must be >= 1, got {self.min_new_experience}")
        if self.min_participants < 1:
            raise ValueError(f"min_participants must be >= 1, got {self.min_participants}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError(
                f"validation_fraction must be in (0, 1), got {self.validation_fraction}"
            )
        if self.regret_tolerance_ms < 0:
            raise ValueError(f"regret_tolerance_ms must be >= 0, got {self.regret_tolerance_ms}")
