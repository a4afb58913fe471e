"""Ablation A3: beam width sweep for the legality beam search (§4.3).

The paper's beam search takes the top-k tables per step; this bench
sweeps k with the CostEst rerank on and off (it defaults to on at k > 1,
so a bare width sweep would conflate the two) and reports join-order
quality (mean JOEU, exact-optimal fraction), the simulated execution
time of the chosen orders and decode latency — the
exploration/latency trade-off the beam width controls.

Run:  pytest benchmarks/bench_ablation_beam.py --benchmark-only -s
"""

import time

import numpy as np

from repro.core import joeu
from repro.eval import join_order_execution_time
from repro.optimizer.selectivity import HistogramEstimator


def test_beam_width_sweep(benchmark, study):
    db_name = study.db.name
    model = study.train_mtmlf("MTMLF-QO")
    test = [item for item in study.test if item.optimal_order is not None]
    assert test

    estimator = HistogramEstimator(study.db)

    def sweep():
        results = {}
        for width in (1, 2, 4):
            for rerank in (True, False):
                start = time.perf_counter()
                orders = model.predict_join_orders(db_name, test, beam_width=width, rerank_with_cost=rerank)
                elapsed = time.perf_counter() - start
                scores = [joeu(order, item.optimal_order) for item, order in zip(test, orders)]
                hits = sum(order == item.optimal_order for item, order in zip(test, orders))
                sim_ms = sum(
                    join_order_execution_time(study.db, item, order, estimator) for item, order in zip(test, orders)
                )
                results[width, rerank] = (float(np.mean(scores)), hits / len(test), sim_ms, elapsed / len(test))
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("Ablation: beam width k x cost rerank (legality-aware beam search)")
    print("-" * 70)
    print(f"{'k':>3}{'rerank':>8}{'mean JOEU':>14}{'optimal %':>12}{'sim ms':>14}{'ms/query':>14}")
    for (width, rerank), (mean_joeu, optimal, sim_ms, latency) in sorted(results.items()):
        print(
            f"{width:>3}{'on' if rerank else 'off':>8}{mean_joeu:>14.3f}{100 * optimal:>11.1f}%"
            f"{sim_ms:>14.1f}{1000 * latency:>13.2f}"
        )

    # Quality must never collapse at any width, and a beam of one has
    # no second candidate for the rerank to promote.
    for mean_joeu, optimal, sim_ms, _ in results.values():
        assert 0.0 <= mean_joeu <= 1.0
        assert 0.0 <= optimal <= 1.0
        assert sim_ms > 0.0
    assert results[1, True][:3] == results[1, False][:3]
