"""The fleet coordinator: asynchronous FedAvg over live tenants.

The paper's Section 7 deployment is a cloud provider whose customers
each serve queries locally while contributing only model updates to a
shared (S)/(T) model.  :class:`FleetCoordinator` runs that cycle against
live :class:`~repro.federation.node.TenantNode` instances, one round per
:meth:`FleetCoordinator.run_round` call (the coordinator starts no
thread of its own):

1. **broadcast** — the current global (S)/(T) state is handed to every
   registered tenant;
2. **local phase** — tenants with enough fresh execution-labeled
   experience fine-tune a private copy (on parallel harvest threads —
   grad mode is thread-local, each tenant's model, featurizer clone and
   RNGs are private, so the result is deterministic regardless of
   scheduling) and return their (S)/(T) vectors; tenants without
   fresh traffic skip, which is what makes rounds *asynchronous* — the
   fleet never blocks on an idle tenant;
3. **merge** — the returned vectors are example-weighted FedAvg-merged
   (:func:`repro.core.federated.aggregate_shared_states`); every tenant
   was checked at :meth:`FleetCoordinator.register` to have the global
   model's (S)/(T) layout, so equal-sized vectors are like for like;
4. **checkpoint** — every global round is persisted via
   :func:`repro.core.checkpoint.save_checkpoint` (``round-NNNN.npz``),
   so any round can be replayed, shipped, or rolled back to;
5. **push** — every tenant (participant or not) evaluates the merged
   model through its own regret gate and hot-swaps only on acceptance.
   If every gated tenant rejects, the coordinator reverts the global
   state to the pre-round weights, so a poisoned round cannot linger in
   the lineage.

:meth:`onboard` implements the paper's new-customer path: the current
global (S)/(T) plus :func:`~repro.core.meta.transfer` at k = 0 over the
given (F) encoder (a trained featurizer, or a budget to train a
database-specific one; deploy zero-shot — no local (S)/(T) training, no
data leaving the tenant), then registration.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..core.checkpoint import save_checkpoint
from ..core.config import ModelConfig
from ..core.encoders import DatabaseFeaturizer, EncoderBudget
from ..core.federated import aggregate_shared_states
from ..core.meta import transfer
from ..core.model import MTMLFQO
from ..nn.layers import layout_mismatch, vector_layout
from ..obs import Telemetry
from ..serve.adaptation import CheckpointDir, RoundConfig
from .node import TenantNode
from .report import FleetReport

__all__ = ["FleetCoordinator", "FleetRound"]


@dataclass
class FleetRound:
    """Outcome of one global federated round."""

    index: int
    # (tenant name, training examples contributed) for the local phase.
    participants: list[tuple[str, int]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    # Push-phase gate outcomes, by tenant name.
    accepted: list[str] = field(default_factory=list)
    rejected: list[str] = field(default_factory=list)
    unvalidated: list[str] = field(default_factory=list)
    # Tenants whose local update or gate *raised* this round — kept
    # apart from `skipped` ("no fresh experience") so a repeatedly
    # crashing tenant is visible, not silent.
    failed: list[str] = field(default_factory=list)
    checkpoint_path: str | None = None
    reverted: bool = False

    @property
    def merged(self) -> bool:
        """Whether the round produced (and pushed) a merged model."""
        return bool(self.participants)


class FleetCoordinator:
    """Drives federated rounds over registered tenants.

    A round runs when :meth:`run_round` is called: the coordinator has
    no loop of its own.  Use as a context manager to clean up a private
    checkpoint directory on exit::

        with FleetCoordinator(model_config, config) as fleet:
            fleet.register(tenant)
            fleet.run_round()
    """

    def __init__(
        self,
        model_config: ModelConfig | None = None,
        config: RoundConfig | None = None,
        global_model: MTMLFQO | None = None,
        telemetry=None,
    ):
        # The round knobs onboarded tenants get; the coordinator itself
        # reads only checkpoint_dir and, for onboarding's (F), seed.
        self.config = config or RoundConfig()
        self._checkpoints = CheckpointDir(self.config, "fleet-coordinator")
        self.global_model = global_model or MTMLFQO(model_config)
        # A shared repro.obs.Telemetry (a private disabled one when
        # None): round spans and counters land in it, and onboarded
        # tenants inherit it (tenant-keyed SLO recording).
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.tenants: dict[str, TenantNode] = {}  # guarded-by: _tenants_lock
        # The latest completed round; its index + 1 numbers the next.
        self._last_round: FleetRound | None = None  # guarded-by: _stats_lock
        # The fleet totals have one store, the registry: report() and
        # every telemetry snapshot read the same counters.  Recorded
        # outside every coordinator lock.
        registry = self.telemetry.registry
        self._rounds_total = registry.counter("fleet.rounds")
        self._reverted_rounds = registry.counter("fleet.reverted_rounds")
        self._tenant_failures = registry.counter("fleet.tenant_failures")
        # Serializes rounds; held across an entire broadcast → push
        # cycle (including per-tenant harvest threads) by design.
        self._round_lock = threading.Lock()  # analysis: coarse-lock
        # Leaf lock for the latest round above: it is written by the
        # thread running a round and read by report() from any thread,
        # and must not require the (long-held) round lock to observe.
        self._stats_lock = threading.Lock()
        # Guards the tenant registry: register()/onboard() may run on
        # one thread while a round on another iterates the fleet —
        # unguarded, that iteration would die mid-round with
        # "dictionary changed size during iteration".
        self._tenants_lock = threading.Lock()
        # Guards reads/writes of the global model's weights vector: one
        # np.copyto is not atomic against a concurrent reader either, so
        # an unguarded onboard()/global_state() racing a round's publish
        # could copy a torn mix of old and new weights.
        self._global_lock = threading.Lock()

    def __enter__(self) -> "FleetCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self._checkpoints.release()

    # -- fleet membership ----------------------------------------------
    def register(self, tenant: TenantNode) -> TenantNode:
        """Add ``tenant`` to the fleet.  Refused (``ValueError``) when its
        name is taken, or when its live model's (S)/(T) layout — names
        and shapes, in order — differs from the global model's: two
        configs whose vectors merely have the same size must never be
        averaged element by element."""
        layouts = [vector_layout(m.named_parameters()) for m in (tenant.live_model, self.global_model)]
        mismatch = layout_mismatch(*layouts)
        if mismatch is not None:
            raise ValueError(
                f"tenant {tenant.name!r} has another (S)/(T) layout than the global model: {mismatch}"
            )
        with self._tenants_lock:
            if tenant.name in self.tenants:
                raise ValueError(f"tenant {tenant.name!r} is already registered")
            self.tenants[tenant.name] = tenant
        return tenant

    def _tenant_snapshot(self) -> list[tuple[str, TenantNode]]:
        """A stable view of the fleet for one iteration pass."""
        with self._tenants_lock:
            return list(self.tenants.items())

    def onboard(
        self,
        db,
        encoder: EncoderBudget | DatabaseFeaturizer,
        name: str | None = None,
        serve_config=None,
        feedback_config=None,
    ) -> TenantNode:
        """Bring a new tenant online: the current global (S)/(T), zero-shot
        (:func:`~repro.core.meta.transfer` with k = 0) over the tenant's
        own (F) — ``encoder`` is passed to ``transfer`` as is: a trained
        :class:`DatabaseFeaturizer` is attached, an
        :class:`EncoderBudget` trains one on ``db`` under
        ``config.seed``.  No tenant data is used beyond that
        single-table encoder fitting.  The tenant is registered (it will
        receive future rounds through its gate, and contribute once it
        accumulates experience) and returned un-started; call
        ``start()`` (or use it as a context manager) to begin serving.
        """
        with self._tenants_lock:
            # Fail fast before the expensive featurizer training; the
            # name is re-checked under the lock at register() time.
            if (name or db.name) in self.tenants:
                raise ValueError(f"tenant {(name or db.name)!r} is already registered")
        model = MTMLFQO(self.global_model.config)
        with self._global_lock:
            model.load_weights(self.global_model.weights)
        transfer(model, db, encoder, seed=self.config.seed)
        tenant = TenantNode(
            db,
            model,
            config=self.config,
            serve_config=serve_config,
            feedback_config=feedback_config,
            name=name,
            telemetry=self.telemetry,
        )
        return self.register(tenant)

    # -- global state ---------------------------------------------------
    def global_state(self) -> np.ndarray:
        """A copy of the global model's (S)/(T) weights vector."""
        with self._global_lock:
            return self.global_model.weights.copy()

    # -- rounds ----------------------------------------------------------
    def run_round(self) -> FleetRound:
        """One synchronous broadcast → local → merge → checkpoint → push
        round; concurrent calls run one after the other."""
        with self._round_lock:
            return self._run_round_locked()

    def _run_round_locked(self) -> FleetRound:
        with self._stats_lock:
            last = self._last_round
        round_ = FleetRound(index=0 if last is None else last.index + 1)
        tracer = self.telemetry.tracer
        round_trace = tracer.new_trace()
        round_started = time.perf_counter()
        broadcast = self.global_state()
        tenants = self._tenant_snapshot()

        # Local phase: harvest every tenant concurrently.  Each update
        # trains a private model on private data with per-instance RNGs
        # and thread-local grad mode, so the outcome is independent of
        # thread scheduling; parallelism only shortens the round.  A
        # crashing tenant is recorded (never silently folded into
        # "skipped") and the rest of the round proceeds without it.
        results: dict[str, "tuple[np.ndarray, int] | None | BaseException"] = {}

        def harvest(tenant_name: str, tenant: TenantNode) -> None:
            try:
                results[tenant_name] = tenant.local_update(broadcast)
            except BaseException as error:
                results[tenant_name] = error

        with tracer.span(round_trace, "fleet.harvest") as span:
            span.set("round", round_.index).set("tenants", len(tenants))
            self._run_per_tenant(tenants, harvest, stage="harvest")

        states: list[np.ndarray] = []
        weights: list[float] = []
        for tenant_name, _ in tenants:
            update = results.get(tenant_name)
            if isinstance(update, BaseException):
                round_.failed.append(tenant_name)
                self._tenant_failures.inc()
                continue
            if update is None:
                round_.skipped.append(tenant_name)
                continue
            state, num_examples = update
            round_.participants.append((tenant_name, num_examples))
            states.append(state)
            weights.append(float(max(num_examples, 1)))

        if states:
            try:
                self._merge_and_push(round_, tenants, states, weights, round_trace)
            except BaseException:
                # The merge never landed (e.g. save_checkpoint on a full
                # disk): the global model was not yet touched — it is
                # only published after the push — but the participants'
                # experience was consumed by a round that produced
                # nothing, so their harvest credit is returned before
                # the error propagates.
                self._abandon_round(round_, tenants)
                raise

        self._note_round(round_, round_trace, round_started)
        with self._stats_lock:
            self._last_round = round_
        return round_

    def _note_round(self, round_: FleetRound, round_trace: int, round_started: float) -> None:
        """Round-end telemetry (outside every coordinator lock): count
        and trace the round."""
        telemetry = self.telemetry
        self._rounds_total.inc()
        if round_.reverted:
            self._reverted_rounds.inc()
        telemetry.registry.histogram("fleet.round_s").observe(time.perf_counter() - round_started)
        telemetry.tracer.event(
            round_trace,
            "round.done",
            {
                "participants": len(round_.participants),
                "accepted": len(round_.accepted),
                "rejected": len(round_.rejected),
                "reverted": round_.reverted,
            },
        )

    def _merge_and_push(self, round_: FleetRound, tenants, states, weights, round_trace: int = 0) -> None:
        """Merge → checkpoint → gated push → publish (or revert).

        The merged weights live in a *staging* model until the push
        phase decides their fate: ``self.global_model`` is only
        rewritten (under the global-state lock) once the round stands,
        so a concurrent ``onboard()``/``global_state()`` can never
        observe a torn write or a merged state that every gate is about
        to reject.
        """
        with self.telemetry.tracer.span(round_trace, "fleet.merge") as span:
            span.set("participants", len(states))
            merged = aggregate_shared_states(states, weights)
            staging = MTMLFQO(self.global_model.config)
            # Raises on a vector of another shape: it never reaches a tenant.
            staging.load_weights(merged)
            round_.checkpoint_path = save_checkpoint(
                staging,
                os.path.join(self._checkpoints.path(), f"round-{round_.index:04d}"),
            )

        # Push phase: every tenant gates the merged model, whether or
        # not it trained this round — receiving is how an idle or
        # freshly onboarded tenant benefits from the fleet.  Gates
        # decode and *execute* validation orders, so like the local
        # phase they run one thread per tenant (independent models,
        # services and engines) instead of serializing the round on the
        # slowest gate.
        outcomes: dict[str, "bool | None | BaseException"] = {}

        def push(tenant_name: str, tenant: TenantNode) -> None:
            try:
                outcomes[tenant_name] = tenant.consider_global(merged)
            except BaseException as error:
                outcomes[tenant_name] = error

        # Tenants that already crashed in the harvest sit the push out:
        # re-driving a broken tenant would only double-count it (or
        # list it as failed *and* accepted in the same round).
        push_tenants = [entry for entry in tenants if entry[0] not in round_.failed]
        with self.telemetry.tracer.span(round_trace, "fleet.push") as span:
            span.set("tenants", len(push_tenants))
            self._run_per_tenant(push_tenants, push, stage="push")
        for tenant_name, _ in push_tenants:
            outcome = outcomes.get(tenant_name)
            if isinstance(outcome, BaseException):
                round_.failed.append(tenant_name)
                self._tenant_failures.inc()
            elif outcome is True:
                round_.accepted.append(tenant_name)
            elif outcome is False:
                round_.rejected.append(tenant_name)
            else:
                round_.unvalidated.append(tenant_name)

        if not round_.accepted:
            # The staged state is discarded — never published, its
            # checkpoint withdrawn — and the participants' harvest
            # credit returned (their experience was consumed by a round
            # that never landed, and the signature-deduped buffers
            # cannot re-admit it).  Two ways here: every tenant that
            # could measure the merge rejected it (the unanimous-
            # rejection rule), or *no* gate produced a verdict at all
            # (every push raised or was unvalidatable) — publishing a
            # merge nobody measured would silently bypass the gate
            # safeguard.
            self._abandon_round(round_, tenants)
            round_.reverted = True
            return
        with self._global_lock:
            self.global_model.load_weights(merged)
            self.global_model.mark_updated()

    def _abandon_round(self, round_: FleetRound, tenants) -> None:
        """Discard a round that will not land: return the participants'
        harvest credit and withdraw the round's checkpoint."""
        by_name = dict(tenants)
        for tenant_name, _ in round_.participants:
            by_name[tenant_name].round.rollback()
        if round_.checkpoint_path is not None:
            try:
                os.remove(round_.checkpoint_path)
            except OSError:
                pass
            round_.checkpoint_path = None

    @staticmethod
    def _run_per_tenant(tenants, target, stage: str) -> None:
        """Run ``target(name, tenant)`` on one thread per tenant, join all."""
        threads = [
            threading.Thread(
                target=target, args=entry, name=f"fleet-{stage}-{entry[0]}", daemon=True
            )
            for entry in tenants
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    # -- reporting --------------------------------------------------------
    def report(self) -> FleetReport:
        """Merge every tenant's ServingReport into one fleet view."""
        tenants = self._tenant_snapshot()
        tenant_reports = {name: tenant.report() for name, tenant in tenants}
        with self._stats_lock:
            last_round = self._last_round
        return FleetReport(
            tenants=tenant_reports,
            rounds=int(self._rounds_total.value),
            reverted_rounds=int(self._reverted_rounds.value),
            tenant_failures=int(self._tenant_failures.value),
            last_round=last_round,
        )
