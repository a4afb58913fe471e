"""One tenant of the federated serving fleet.

A :class:`TenantNode` is the unit of deployment in the paper's cloud
story: one customer database served locally by its own
:class:`~repro.serve.OptimizerService`, with a
:class:`~repro.serve.feedback.FeedbackCollector` turning served orders
into private execution-labeled experience.  The node participates in
federation through exactly two narrow interfaces:

- :meth:`local_update` — fine-tune a *private* model copy (starting
  from the broadcast global weights, on this tenant's experience only)
  and return its (S)/(T) vector plus an example count.  Featurizer (F)
  weights and raw experience never cross this boundary: a model's
  :attr:`~repro.core.model.MTMLFQO.weights` hold no (F) parameter.
- :meth:`consider_global` — evaluate a merged global model against the
  live one on a held-out slice of the tenant's own experience and
  hot-swap it in only if the tenant's simulated latency does not worsen.
  A bad federated round can therefore never degrade a healthy tenant; a
  tenant with *no* experience to validate against keeps its live model
  (counted as ``gates_unvalidated``) rather than accepting blind.

Both are thin schedulers over the tenant's
:class:`~repro.serve.adaptation.TrainRound` — the same private-copy
builder, fine-tune and gate-and-install phases an
:class:`~repro.serve.AdaptationWorker` runs back to back, here separated
by the coordinator's merge and started from the broadcast state.  The
round counts in the tenant service's registry, so the tenant's
:class:`~repro.serve.ServingReport` reads its participations as
``retrains`` and its gate outcomes as ``swaps_accepted`` /
``swaps_rejected`` / ``gates_unvalidated``.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.model import MTMLFQO
from ..core.serializer import query_signature
from ..serve.adaptation import GateResult, RoundConfig, TrainRound
from ..serve.feedback import FeedbackCollector, FeedbackConfig
from ..serve.service import OptimizerService
from ..serve.stats import ServingReport
from ..workload.labeler import LabeledQuery

__all__ = ["TenantNode"]


class TenantNode:
    """One tenant: database + serving service + private experience.

    ``model`` must hold a featurizer for ``db.name`` (typically the
    current global (S)/(T) plus this tenant's own (F) —
    :meth:`FleetCoordinator.onboard` builds exactly that).  Use as a
    context manager (or :meth:`start` / :meth:`stop`)::

        with TenantNode(db, model) as tenant:
            order = tenant.optimize(labeled_query)
    """

    def __init__(
        self,
        db,
        model: MTMLFQO,
        config: RoundConfig | None = None,
        serve_config=None,
        feedback_config: FeedbackConfig | None = None,
        name: str | None = None,
        telemetry=None,
    ):
        self.db = db
        self.config = config or RoundConfig()
        self.name = name or db.name
        model.featurizer_for(db.name)  # fail fast on a missing (F) module
        self.service = OptimizerService(model, db.name, serve_config, telemetry=telemetry)
        # The service's handle: a private disabled one when None was given.
        self.telemetry = self.service.telemetry
        # SLO outcomes are tracked per *tenant*, not per database: two
        # tenants serving the same database name must burn their error
        # budgets separately.
        self.service.slo_name = self.name
        self.collector = FeedbackCollector(db, feedback_config, telemetry=self.telemetry)
        self.service.attach_feedback(self.collector)
        self.buffer = self.collector.buffer
        self.round = TrainRound(self.service, db, self.buffer, self.config)
        self._lock = threading.Lock()
        # Adam's state (step, moment vectors, layout) carried across
        # rounds: each round's private trainer resumes this tenant's
        # optimizer trajectory instead of re-warming from zero.
        self._optimizer_state: dict | None = None  # guarded-by: _lock

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "TenantNode":
        self.collector.start()
        self.service.start()
        return self

    def stop(self) -> None:
        """Stop serving, then let the collector drain its queue."""
        self.service.stop()
        self.collector.stop()

    def __enter__(self) -> "TenantNode":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving -------------------------------------------------------
    def optimize(self, labeled: LabeledQuery, **kwargs) -> list[str]:
        """Serve one query through this tenant's optimizer service."""
        return self.service.optimize(labeled, **kwargs)

    @property
    def live_model(self) -> MTMLFQO:
        """The model currently serving this tenant's traffic."""
        return self.service.live_model

    def report(self) -> ServingReport:
        return self.service.report()

    # -- experience ----------------------------------------------------
    def pending_experience(self) -> int:
        """Unique experiences accumulated since the last harvest."""
        return self.round.pending()

    def inject_experience(self, items: list[LabeledQuery]) -> int:
        """Add pre-labeled experience directly (benchmarks, tests, bulk
        imports); returns how many were accepted (signature-deduped)."""
        accepted = 0
        for item in items:
            if self.buffer.add(query_signature(item.query), item):
                accepted += 1
        return accepted

    # -- federation: local phase ---------------------------------------
    def local_update(self, global_state: np.ndarray) -> tuple[np.ndarray, int] | None:
        """One round's client-side pass; returns ``(weights, n)``.

        Skips (returns None) when fewer than ``min_new_experience``
        fresh experiences accumulated since the last harvest — the
        asynchronous-participation rule.  Otherwise fine-tunes a private
        model (a copy of the broadcast (S)/(T) vector + the live model's
        frozen featurizer, which no trainer steps, so training can never
        touch the serving weights) on the training slice of the
        experience snapshot and returns that model's (S)/(T) vector —
        nothing else holds the private model, so it is not copied — with
        the example count FedAvg weights it by.
        """
        if self.pending_experience() < self.config.min_new_experience:
            return None
        with self._lock:
            optimizer_state = self._optimizer_state
        trainer = self.round.private_trainer(self.live_model, global_state, optimizer_state)
        num_examples = self.round.fine_tune(trainer)
        optimizer_state = trainer.optimizer.state()
        # Harvested now; the coordinator rolls the round back (returning
        # the credit) if the merge never lands.
        self.round.commit()
        with self._lock:
            self._optimizer_state = optimizer_state
        return trainer.model.weights, num_examples

    # -- federation: push phase ----------------------------------------
    def consider_global(self, global_state: np.ndarray) -> bool | None:
        """Gate the merged global model; swap it in only if safe.

        Returns True (accepted + swapped), False (gate-rejected), or
        None when the tenant has no experience to validate against — in
        which case the live model keeps serving: a tenant that cannot
        measure the merged model must not accept it blind.  A tenant
        that trained this round validates on the slice its fine-tune
        held out, any other on its entire buffer.
        """
        candidate = self.round.private_model(self.live_model, global_state)
        gate = self.round.gate_and_install(candidate)
        return None if gate is None else gate.accepted

    # -- reporting -----------------------------------------------------
    @property
    def last_gate(self) -> GateResult | None:
        return self.round.last_gate
