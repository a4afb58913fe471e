"""Ablation A2: token-level vs sequence-level join-order loss (Section 5).

The paper proposes the JOEU-based sequence-level criterion (Equation 3)
to fix the train/decode mismatch of the token-level loss.  This bench
trains Trans_JO with the token-level loss, snapshots its join-order
quality, refines with the sequence-level loss, and reports the change
in mean JOEU and exact-optimal fraction on held-out queries.

Run:  pytest benchmarks/bench_ablation_seqloss.py --benchmark-only -s
"""

import numpy as np

from repro.core import JointTrainer, MTMLFQO, ModelConfig, joeu


def _jo_quality(model, db_name, items):
    scores, hits = [], 0
    for item, order in zip(items, model.predict_join_orders(db_name, items)):
        scores.append(joeu(order, item.optimal_order))
        hits += order == item.optimal_order
    return float(np.mean(scores)), hits / len(items)


def test_sequence_level_loss_ablation(benchmark, study):
    db_name = study.db.name
    train = [item for item in study.train if item.optimal_order is not None][:80]
    test = [item for item in study.test if item.optimal_order is not None]
    assert test, "no held-out queries with optimal-order labels"

    config = ModelConfig(
        **{**study.config.model.__dict__, "w_card": 0.0, "w_cost": 0.0, "w_jo": 1.0}
    )

    def run():
        model = MTMLFQO(config)
        model.attach_featurizer(db_name, study.train_featurizer())
        trainer = JointTrainer(model)
        examples = [(db_name, item) for item in train]
        trainer.train(examples, epochs=15, batch_size=16, seed=0)
        token_quality = _jo_quality(model, db_name, test)
        trainer.train(examples[:40], epochs=2, batch_size=16, seed=0, jo_criterion="sequence")
        seq_quality = _jo_quality(model, db_name, test)
        return token_quality, seq_quality

    (token_joeu, token_opt), (seq_joeu, seq_opt) = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("Ablation: join-order loss criterion (held-out queries)")
    print("-" * 58)
    print(f"{'criterion':<28}{'mean JOEU':>12}{'optimal %':>12}")
    print(f"{'token-level (L.iii)':<28}{token_joeu:>12.3f}{100 * token_opt:>11.1f}%")
    print(f"{'+ sequence-level (Eq. 3)':<28}{seq_joeu:>12.3f}{100 * seq_opt:>11.1f}%")

    assert 0.0 <= token_joeu <= 1.0 and 0.0 <= seq_joeu <= 1.0
