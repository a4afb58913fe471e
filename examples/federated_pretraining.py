"""Federated MLA: privacy-preserving cross-DB pre-training (Section 7).

The paper's cloud workflow proposes federated learning so the provider
can distill database-agnostic knowledge without ever seeing user data.
This example runs FedAvg over three "user" databases — each client
trains the shared (S)/(T) modules locally on its private workload and
ships only parameter updates — then transfers the federated model to a
fourth, unseen database.

Run:  python examples/federated_pretraining.py
"""

import numpy as np

from repro.core import (
    EncoderBudget,
    FederatedClient,
    FederatedConfig,
    FederatedTrainer,
    ModelConfig,
    joeu,
    transfer,
)
from repro.datagen import generate_databases
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator


def build_client(db, seed: int, num_queries: int = 40) -> FederatedClient:
    generator = WorkloadGenerator(
        db, WorkloadConfig(min_tables=2, max_tables=4, seed=seed, max_filters_per_table=1)
    )
    workload = QueryLabeler(db).label_many(generator.generate(num_queries), with_optimal_order=True)
    return FederatedClient(db=db, workload=workload)


def main() -> None:
    print("generating 4 synthetic databases (3 federated clients + 1 unseen)...")
    dbs = generate_databases(4, base_seed=200, row_range=(150, 600), attr_range=(2, 4),
                             fk_skew=1.2, fk_correlation=0.7)
    clients = [build_client(db, seed=i) for i, db in enumerate(dbs[:3])]
    for client in clients:
        print(f"  client {client.db.name}: {client.num_examples} private labeled queries")

    print("\nrunning FedAvg over the shared (S)/(T) modules...")
    fed_config = FederatedConfig(rounds=4, local_epochs=3, encoder=EncoderBudget(10, 5), verbose=True)
    trainer = FederatedTrainer(
        ModelConfig(d_model=32, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2), fed_config
    )
    trainer.train(clients)
    print(f"round losses: {[round(l, 3) for l in trainer.round_losses]}")

    print("\ntransferring to the unseen database (only its featurizer is trained)...")
    test_client = build_client(dbs[3], seed=9)
    transfer(trainer.server_model, test_client.db, fed_config.encoder, seed=fed_config.seed)

    jo_items = [i for i in test_client.workload if i.optimal_order and i.query.num_tables >= 2]
    orders = trainer.server_model.predict_join_orders(test_client.db.name, jo_items)
    scores = [joeu(order, item.optimal_order) for item, order in zip(jo_items, orders)]
    hits = sum(order == item.optimal_order for item, order in zip(jo_items, orders))
    print(f"unseen DB join-order quality: mean JOEU {np.mean(scores):.3f}, "
          f"exactly optimal on {hits}/{len(jo_items)} queries")
    print("\nno raw tuples or queries ever left a client — only (S)/(T) parameters.")


if __name__ == "__main__":
    main()
