"""Ablation A4: left-deep vs bushy plan spaces (Figure 3 / Section 4.1).

The paper focuses on left-deep orders but its tree codec and beam
search extend to bushy plans.  This bench quantifies what the larger
plan space buys on this workload: it runs the exact DP over true
cardinalities in both spaces and reports the cost improvement bushy
plans achieve over the best left-deep plan.

Run:  pytest benchmarks/bench_ablation_bushy.py --benchmark-only -s
"""

import numpy as np

from repro.optimizer import TrueCardinalityOracle, optimal_plan


def test_left_deep_vs_bushy(benchmark, study):
    db = study.db
    items = [item for item in study.test if item.optimal_order is not None][:15]
    assert items

    def run():
        improvements = []
        for item in items:
            oracle = TrueCardinalityOracle(db, max_intermediate_rows=5_000_000)
            try:
                left_deep = optimal_plan(item.query, db, left_deep_only=True, oracle=oracle)
                executed = oracle.executions
                bushy = optimal_plan(item.query, db, left_deep_only=False, oracle=oracle)
            except Exception:
                continue
            # Both DPs ask about the same connected subsets: the second
            # finds every intermediate on the oracle's view of the query.
            assert oracle.executions == executed
            improvements.append(left_deep.cost / max(bushy.cost, 1e-12))
        return improvements

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)
    assert ratios
    ratios = np.asarray(ratios)
    print()
    print("Ablation: optimal left-deep vs optimal bushy plan cost")
    print("-" * 58)
    print(f"queries evaluated: {len(ratios)}")
    print(f"left-deep/bushy cost ratio: median {np.median(ratios):.3f} "
          f"mean {ratios.mean():.3f} max {ratios.max():.3f}")
    better = int((ratios > 1.0 + 1e-9).sum())
    print(f"bushy strictly better on {better}/{len(ratios)} queries")

    # Bushy space contains left-deep: it can never cost more.
    assert (ratios >= 1.0 - 1e-9).all()
