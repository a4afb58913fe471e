"""Ablation A5: two-phase JoinSel training (Section 3.2 research note).

Optimal join orders are exponentially expensive to label; the paper
suggests bootstrapping from an existing DBMS's sub-optimal orders and
refining with few optimal ones.  This bench compares three regimes on
held-out join-order quality:

- optimal-only: trained on the (scarce) optimal orders;
- planner-only: trained on the classical planner's (weak) orders;
- two-phase: planner warm-up, then optimal refinement.

Run:  pytest benchmarks/bench_ablation_twophase.py --benchmark-only -s
"""

import numpy as np

from repro.core import JointTrainer, MTMLFQO, ModelConfig, joeu


def _quality(model, db_name, items):
    scores, hits = [], 0
    for item, order in zip(items, model.predict_join_orders(db_name, items)):
        scores.append(joeu(order, item.optimal_order))
        hits += order == item.optimal_order
    return float(np.mean(scores)), hits / len(items)


def test_two_phase_training(benchmark, study):
    db_name = study.db.name
    train = [item for item in study.train if item.optimal_order is not None]
    test = [item for item in study.test if item.optimal_order is not None]
    assert test
    # Simulate label scarcity: optimal orders for only 25% of training data.
    scarce = train[: max(len(train) // 4, 5)]
    config = ModelConfig(
        **{**study.config.model.__dict__, "w_card": 0.0, "w_cost": 0.0, "w_jo": 1.0}
    )

    def make_model():
        model = MTMLFQO(config)
        model.attach_featurizer(db_name, study.train_featurizer())
        return model

    def run():
        results = {}
        # optimal-only (scarce labels)
        model = make_model()
        trainer = JointTrainer(model)
        trainer.train([(db_name, i) for i in scarce], epochs=12, batch_size=16, seed=0)
        results["optimal-only (25% labels)"] = _quality(model, db_name, test)
        # planner-only (abundant weak labels)
        model = make_model()
        trainer = JointTrainer(model)
        trainer.train([(db_name, i) for i in train], epochs=12, batch_size=16, seed=0, jo_criterion="planner")
        results["planner-only (weak)"] = _quality(model, db_name, test)
        # two-phase
        model = make_model()
        trainer = JointTrainer(model)
        trainer.train([(db_name, i) for i in train], epochs=8, batch_size=16, seed=0, jo_criterion="planner")
        trainer.train([(db_name, i) for i in scarce], epochs=6, batch_size=16, seed=1)
        results["two-phase"] = _quality(model, db_name, test)
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Ablation: two-phase JoinSel training (held-out quality)")
    print("-" * 62)
    print(f"{'regime':<28}{'mean JOEU':>12}{'optimal %':>12}")
    for name, (mean_joeu, optimal) in results.items():
        print(f"{name:<28}{mean_joeu:>12.3f}{100 * optimal:>11.1f}%")

    for mean_joeu, optimal in results.values():
        assert 0.0 <= mean_joeu <= 1.0 and 0.0 <= optimal <= 1.0
