"""Quickstart: train MTMLF-QO on a small synthetic database.

Runs the full pipeline end-to-end in under a minute:

1. generate a synthetic database (the paper's Section 6.2 pipeline);
2. generate + label a JOB-like workload (true cards, costs, optimal
   join orders from the exact optimizer);
3. train the per-table encoders (F), then the shared representation and
   task heads (S, T) jointly on CardEst + CostEst + JoinSel;
4. compare predictions against ground truth and PostgreSQL-style
   estimates on held-out queries;
5. serve concurrent single-query traffic through the micro-batching
   optimizer service (``repro.serve``);
6. checkpoint the full model to disk, restore it bit-exactly, and
   warm-start further training from the saved optimizer moments;
7. close the loop — collect execution feedback from served orders and
   adapt the live model online behind a regression gate;
8. run a federated fleet — two tenants serving locally while a
   coordinator merges their shared-(S)/(T) updates, then onboard a
   third tenant zero-shot (its featurizer is the only thing trained);
9. observe it all — re-serve with a ``Telemetry`` handle, trace one
   request through queue -> batch -> decode -> cache, and write a
   snapshot for ``python -m repro.obs``.

Run:  python examples/quickstart.py
"""

import os
import tempfile
import threading

import numpy as np

from repro.baselines import PostgresBaseline
from repro.core import (
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    load_checkpoint,
)
from repro.datagen import generate_database
from repro.eval import format_serving_report
from repro.serve import OptimizerService, ServeConfig
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator, split_dataset


def main() -> None:
    print("=== 1. Generate a synthetic database (Section 6.2 pipeline) ===")
    db = generate_database(seed=7, num_tables=6, row_range=(200, 1000), attr_range=(2, 4))
    print(f"database {db.name!r}: tables {db.table_names}, {db.total_rows()} total rows")

    print("\n=== 2. Generate and label a JOB-like workload ===")
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=0))
    labeled = QueryLabeler(db).label_many(generator.generate(120), with_optimal_order=True)
    train, test = split_dataset(labeled, (0.85, 0.15), seed=0)
    print(f"labeled {len(labeled)} queries ({len(train)} train / {len(test)} test)")
    example = test[0]
    print(f"example query: {example.query.to_sql()}")
    print(f"  true cardinality {example.cardinality}, simulated latency {example.cost:.2f} ms")
    print(f"  optimal join order: {example.optimal_order}")

    print("\n=== 3. Train MTMLF-QO ===")
    config = ModelConfig(d_model=48, shared_layers=2, decoder_layers=2)
    featurizer = DatabaseFeaturizer(db, config)
    print("training per-table encoders Enc_i (single-table CardEst)...")
    featurizer.train_encoders(queries_per_table=15, epochs=8)
    model = MTMLFQO(config)
    model.attach_featurizer(db.name, featurizer)
    trainer = JointTrainer(model)
    print("joint multi-task training of (S) + (T)...")
    result = trainer.train([(db.name, item) for item in train], epochs=25, batch_size=16)
    print(f"loss: {result.epoch_losses[0]:.3f} -> {result.final_loss:.3f}")

    print("\n=== 4. Evaluate on held-out queries ===")
    postgres = PostgresBaseline(db)

    def qerr(pred, true):
        pred, true = max(pred, 1.0), max(true, 1.0)
        return max(pred / true, true / pred)

    mtmlf_errors, pg_errors = [], []
    for item in test:
        preds = model.predict_cardinalities(db.name, [item])[0]
        pg_preds = postgres.predict_cards(item)
        for p, g, t in zip(preds, pg_preds, item.node_cardinalities):
            mtmlf_errors.append(qerr(p, t))
            pg_errors.append(qerr(g, t))
    print(f"cardinality q-error (median): MTMLF-QO {np.median(mtmlf_errors):.2f}  "
          f"PostgreSQL {np.median(pg_errors):.2f}")

    jo_items = [item for item in test if item.optimal_order is not None]
    # One batched call: Trans_Share encodes all queries together and the
    # beam searches advance in lockstep off shared decoder forwards.
    orders = model.predict_join_orders(db.name, jo_items)
    hits = sum(order == item.optimal_order for item, order in zip(jo_items, orders))
    if jo_items:
        print(f"join order: predicted THE optimal order on {hits}/{len(jo_items)} test queries")

    print("\n=== 5. Serve concurrent traffic (micro-batching service) ===")
    # Callers submit ONE query at a time from many threads; the service
    # coalesces them into the batched decode path and caches plans by
    # structural signature.  Orders are identical to direct calls.
    # Decodes run on the no-tape fast path (raw-ndarray kernels, encoder
    # K/V cached once per decode — DESIGN.md section 11); it is
    # bit-identical to the tape path, so none of the parity claims below
    # depend on which mode runs.
    # One model, one drain worker: at this model size decode time is
    # Python dispatch under the GIL, so more workers only split batches
    # (DESIGN.md section 5).
    served: dict[int, list[str]] = {}
    with OptimizerService(model, db.name, ServeConfig(max_batch_size=8, max_wait_ms=3.0)) as service:
        def client(index, item):
            served[index] = service.optimize(item)

        threads = [threading.Thread(target=client, args=(i, item)) for i, item in enumerate(jo_items)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        print(format_serving_report(service.report()))
    matches = sum(served[i] == order for i, order in enumerate(orders))
    print(f"served orders identical to direct batched calls: {matches}/{len(jo_items)}")

    print("\n=== 6. Checkpoint: save, restore, warm-start (MLA shipping) ===")
    # The paper's MLA workflow ships pre-trained modules; save_checkpoint
    # persists the *complete* model — config, (S)/(T) weights, the
    # per-database featurizer, model version — plus the trainer's Adam
    # moments, in one atomic .npz file.
    with tempfile.TemporaryDirectory() as checkpoint_dir:
        path = trainer.save_checkpoint(os.path.join(checkpoint_dir, "mtmlf_qo"))
        print(f"checkpoint written: {os.path.basename(path)} "
              f"({os.path.getsize(path) / 1e6:.1f} MB)")

        # Restore is bit-exact: the loaded model decodes identical orders.
        restored = load_checkpoint(path, databases=db)
        restored_orders = restored.predict_join_orders(db.name, jo_items)
        print(f"restored model reproduces direct orders: "
              f"{sum(a == b for a, b in zip(orders, restored_orders))}/{len(jo_items)}")

        # Warm start: a fresh trainer resumes with the saved Adam moments
        # (keyed by parameter name, so a mismatched model fails loudly
        # instead of silently misaligning).
        warm = JointTrainer.warm_start(path, databases=db)
        more = warm.train([(db.name, item) for item in train], epochs=2, batch_size=16)
        print(f"warm-started training continues: loss {result.final_loss:.3f} "
              f"-> {more.final_loss:.3f}")

    print("\n=== 7. Adapt while serving (execution feedback + gated retrain) ===")
    # The paper's training data is harvested from *executed* plans — and
    # a serving optimizer executes plans all day.  The feedback path
    # turns served orders into labeled experience in the background; an
    # AdaptationWorker warm-starts the trainer from the latest
    # checkpoint, fine-tunes on that experience, and hot-swaps the live
    # model only if join-order regret on a held-out slice does not
    # worsen.  Here the workload drifts to bigger queries mid-serve.
    from repro.serve import AdaptationConfig, AdaptationWorker, FeedbackCollector, FeedbackConfig

    drifted_gen = WorkloadGenerator(
        db, WorkloadConfig(min_tables=4, max_tables=6, seed=99, like_probability=0.6)
    )
    drifted = [item for item in QueryLabeler(db).label_many(
        drifted_gen.generate(24), with_optimal_order=True) if item.optimal_order is not None][:12]
    collector = FeedbackCollector(db, FeedbackConfig(buffer_capacity=64))
    with OptimizerService(model, db.name) as service, collector:
        service.attach_feedback(collector)
        before = [service.optimize(item) for item in drifted]   # feedback flows
        collector.drain(timeout=120)
        worker = AdaptationWorker(
            service, db, collector.buffer,
            AdaptationConfig(min_new_experience=8, fine_tune_epochs=12),
        )
        swapped = worker.run_once()   # or worker.start() for the background loop
        gate = worker.last_gate
        print(f"collected {len(collector.buffer)} experiences from served orders")
        if gate is None:
            print("no gateable experience collected (all executions rejected): "
                  f"{service.report().feedback_rejections}")
        else:
            print(f"regression gate: candidate {gate.candidate_ms:.2f} ms vs live "
                  f"{gate.live_ms:.2f} ms on {gate.validation_count} held-out queries "
                  f"-> {'swapped' if swapped else 'kept live model'}")
        after = [service.optimize(item) for item in drifted]
        report = service.report()
        worker.stop()
    changed = sum(a != b for a, b in zip(before, after))
    print(f"post-adaptation orders changed on {changed}/{len(drifted)} drifted queries")
    print(f"counters: {report.retrains} retrains, {report.swaps_accepted} accepted, "
          f"{report.swaps_rejected} gate-rejected")

    print("\n=== 8. Federated fleet: two tenants + zero-shot onboarding ===")
    # The paper's cloud deployment (Section 7) as a running system
    # (``repro.federation``): every tenant serves its own database and
    # contributes only shared-(S)/(T) weight updates — featurizers and
    # raw experience never leave a node — while a FleetCoordinator
    # merges updates example-weighted, checkpoints each global round,
    # and pushes the merged model back through each tenant's regression
    # gate.  A new tenant onboards by training only its featurizer (F):
    # the global (S)/(T) is deployed zero-shot.
    from repro.core import EncoderBudget
    from repro.datagen import generate_databases
    from repro.eval import format_fleet_report
    from repro.federation import FleetCoordinator
    from repro.serve import RoundConfig

    fleet_dbs = generate_databases(3, base_seed=500, row_range=(100, 400), attr_range=(2, 3))
    fleet_config = RoundConfig(fine_tune_epochs=4, min_new_experience=6)
    encoder = EncoderBudget(6, 2)   # each tenant's (F) training budget
    with FleetCoordinator(config, fleet_config) as fleet:
        # Seed the global (S)/(T) with the model trained above — the
        # provider's pre-trained weights (its (S)/(T) vector; no (F)).
        fleet.global_model.load_weights(model.weights)
        nodes = []
        for tenant_db in fleet_dbs[:2]:
            tenant = fleet.onboard(tenant_db, encoder)   # trains (F) only
            tenant.start()
            nodes.append(tenant)
            generator = WorkloadGenerator(
                tenant_db, WorkloadConfig(min_tables=2, max_tables=3, seed=3)
            )
            pool = [item for item in QueryLabeler(tenant_db).label_many(
                generator.generate(10), with_optimal_order=True)
                if item.optimal_order is not None]
            for item in pool:                   # traffic -> private experience
                tenant.optimize(item)
            tenant.collector.drain(timeout=120)
        round_ = fleet.run_round()
        print(f"round 1: participants {[name for name, _ in round_.participants]}, "
              f"accepted {round_.accepted}, rejected {round_.rejected}")
        print(f"global round checkpointed at {os.path.basename(round_.checkpoint_path)}"
              if round_.checkpoint_path else "no merge (not enough fresh experience)")

        # Zero-shot onboarding: the third tenant gets the current
        # global (S)/(T) untouched; only its featurizer is trained.
        newcomer = fleet.onboard(fleet_dbs[2], encoder)
        with newcomer:
            probe_gen = WorkloadGenerator(
                fleet_dbs[2], WorkloadConfig(min_tables=2, max_tables=3, seed=9)
            )
            probe = [item for item in QueryLabeler(fleet_dbs[2]).label_many(
                probe_gen.generate(4), with_optimal_order=True)][:3]
            orders = [newcomer.optimize(item) for item in probe]
        print(f"onboarded {newcomer.name!r} zero-shot; serves join orders "
              f"immediately: {orders[0]}")
        print()
        print(format_fleet_report(fleet.report()))
        for tenant in nodes:
            tenant.stop()

    print("\n=== 9. Observability: trace a request, snapshot the telemetry ===")
    # One Telemetry handle (metrics registry + trace spans + per-tenant
    # SLOs) threads through the serving stack (DESIGN.md section 13).
    # Trace IDs are minted per request and travel across threads, so the
    # spans below were recorded by client, drain-worker, and feedback
    # threads yet line up on one trace.
    from repro.obs import Telemetry, write_snapshot

    telemetry = Telemetry()

    def serve_concurrently(service, items):
        workers = [
            threading.Thread(target=service.optimize, args=(item,)) for item in items
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    with OptimizerService(model, db.name, ServeConfig(max_batch_size=8),
                          telemetry=telemetry) as service:
        serve_concurrently(service, jo_items)
        serve_concurrently(service, jo_items)  # second pass hits the plan cache
    complete = telemetry.tracer.complete_traces({"queue_wait", "batch", "decode"})
    spans = telemetry.tracer.trace(complete[0])
    t0 = min(s.start_s for s in spans)
    print(f"one request's life (trace {complete[0]}, {len(spans)} spans):")
    for span in spans:
        print(f"  +{1000 * (span.start_s - t0):7.2f}ms  {span.name:<12}"
              f"{1000 * span.duration_s:8.3f}ms  [{span.thread}]")
    status = telemetry.slo.status(db.name)
    print(f"SLO: {status.window} requests in window, {status.violations} violations, "
          f"burn {status.burn_rate:.2f}x of budget")
    snapshot_path = os.path.join(tempfile.gettempdir(), "quickstart_telemetry.json")
    write_snapshot(snapshot_path, telemetry.snapshot())
    print(f"snapshot written: {snapshot_path}")
    print(f"  render it with: PYTHONPATH=src python -m repro.obs {snapshot_path}")

    print("\ndone — see benchmarks/paper/run.py for the paper's Tables 1-3 and ablations,"
          "\n       examples/serve_demo.py for serving + live model hot-swap,"
          "\n       examples/fleet_demo.py for the federated fleet, and"
          "\n       benchmarks/paper/run.py Fleet for the fleet benchmark")


if __name__ == "__main__":
    main()
