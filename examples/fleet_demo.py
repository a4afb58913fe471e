"""Federated multi-tenant serving fleet (Section 7's cloud story, live).

Three "customer" databases serve traffic through their own
micro-batching optimizer services while a :class:`FleetCoordinator`
runs FedAvg rounds over them:

1. every tenant accumulates private execution-labeled experience from
   its own served orders (feedback collector);
2. a federated round harvests shared-(S)/(T)-only weight updates from
   tenants with fresh traffic — featurizers (F) and raw experience
   never leave a node — merges them example-weighted, and checkpoints
   the global round;
3. the merged model is pushed back through every tenant's join-order
   regret gate: a tenant hot-swaps it only if its own measured latency
   does not worsen;
4. a fourth tenant is onboarded *zero-shot*: only its featurizer is
   trained, the global (S)/(T) serves immediately.

Run:  python examples/fleet_demo.py
"""

from repro.core import EncoderBudget, JointTrainer, MTMLFQO, ModelConfig
from repro.datagen import generate_databases
from repro.eval import format_fleet_report
from repro.federation import FleetCoordinator
from repro.serve import RoundConfig
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator, traffic_stream

MODEL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


def tenant_pool(db, seed: int, count: int = 14):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=seed))
    labeled = QueryLabeler(db).label_many(generator.generate(count), with_optimal_order=True)
    return [item for item in labeled if item.optimal_order is not None]


def main() -> None:
    print("generating 4 tenant databases (3 founding + 1 onboarding)...")
    dbs = generate_databases(4, base_seed=640, row_range=(120, 450), attr_range=(2, 3))
    config = RoundConfig(fine_tune_epochs=6, min_new_experience=6, validation_fraction=0.3)
    # Each tenant's (F) training budget, passed to onboard().
    encoder = EncoderBudget(6, 3)

    with FleetCoordinator(MODEL, config) as fleet:
        print("\nonboarding the founding tenants (each trains only its (F) module)...")
        tenants = [fleet.onboard(db, encoder) for db in dbs[:3]]
        pools = [tenant_pool(db, seed=11 + i) for i, db in enumerate(dbs[:3])]

        # Give the pristine global (S)/(T) a head start on tenant 0's
        # labeled traffic — the provider's pre-trained weights.
        warmup = MTMLFQO(MODEL)
        warmup.attach_featurizer(dbs[0].name, tenants[0].live_model.featurizer_for(dbs[0].name))
        warmup.load_weights(fleet.global_state())
        JointTrainer(warmup).train(
            [(dbs[0].name, item) for item in pools[0]], epochs=6, batch_size=8
        )
        fleet.global_model.load_weights(warmup.weights)

        print("serving tenant traffic (orders are executed into experience)...")
        for tenant, pool in zip(tenants, pools):
            tenant.start()
            for _, item in traffic_stream(pool, occurrences=2, seed=5):
                tenant.optimize(item)
            tenant.collector.drain(timeout=180)
            print(f"  {tenant.name}: {len(tenant.buffer)} experiences buffered, "
                  f"{tenant.pending_experience()} fresh")

        print("\nrunning federated rounds (merge -> checkpoint -> gated push)...")
        for _ in range(2):
            round_ = fleet.run_round()
            print(f"  round {round_.index}: participants "
                  f"{[name for name, _ in round_.participants]}, "
                  f"accepted {round_.accepted}, rejected {round_.rejected}, "
                  f"skipped {round_.skipped}")

        print("\nonboarding a new tenant zero-shot (global (S)/(T), fresh (F))...")
        newcomer = fleet.onboard(dbs[3], encoder)
        probe = tenant_pool(dbs[3], seed=77, count=6)[:4]
        with newcomer:
            orders = [newcomer.optimize(item) for item in probe]
        print(f"  {newcomer.name} serves immediately; first order: {orders[0]}")

        print()
        print(format_fleet_report(fleet.report()))
        for tenant in tenants:
            tenant.stop()


if __name__ == "__main__":
    main()
