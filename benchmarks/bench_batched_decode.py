"""Benchmark: decode-path trajectory for Trans_JO beam search.

Two beam-search phases over the same workload (beam width 8, 8-table queries):

- ``sequential``   — the test-side reference search
  (``tests/sequential_oracle.py``): one incremental decoder step per beam
  per timestep at B = 1, memory K/V re-projected at every step, under
  ``no_grad``.
- ``fast_batched`` — the production search (``drive_beam_states``): all
  beams of a timestep in one incremental step on raw ndarrays,
  per-decode KV cache.

Candidates from both phases are verified to match at decode level —
identical positions, legal flags and order, log-probabilities within
1e-9 — before any timing is trusted.  Timing is interleaved (one repeat of each phase per
round, best-of-N) so CPU frequency drift hits both phases equally.

A third pair of phases times what follows the beam: one warm 16-query
batch of 6-8-table queries through ``MTMLFQO.predict_join_orders`` at
the serving beam width (3) with and without the CostEst rerank.  Their
ratio, ``rerank_overhead``, is what planning every candidate with the
classical estimator and costing it with the model adds to a decode.

Run:
    PYTHONPATH=src python benchmarks/bench_batched_decode.py                 # full: asserts gates
    PYTHONPATH=src python benchmarks/bench_batched_decode.py --smoke         # CI: parity + report
    PYTHONPATH=src python benchmarks/bench_batched_decode.py --profile       # per-op kernel counters
    PYTHONPATH=src python benchmarks/bench_batched_decode.py \
        --save BENCH_decode.json                                             # write snapshot
    PYTHONPATH=src python benchmarks/bench_batched_decode.py \
        --check-against BENCH_decode.json                                    # perf trajectory gate

The ``--check-against`` mode fails when the fresh fast-vs-sequential
speedup falls more than 15% below the committed snapshot's, or the
fresh rerank overhead rises more than 15% above it — the perf
trajectory gate: the batched search may only get faster relative to the
one-forward-per-beam reference, and the rerank only cheaper relative to
the decode it follows.

This file is a standalone script (not collected by the tier-1 pytest
run) so the CI decode-speed job can run it directly.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import numpy as np

import repro.nn as nn
from repro.core import (
    DatabaseFeaturizer,
    ModelConfig,
    MTMLFQO,
    TransJO,
    beam_search_join_order,
)
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

# The reference search lives with the tests; it is not part of the package.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from sequential_oracle import (  # noqa: E402
    LOG_PROB_TOLERANCE,
    beam_search_join_order_sequential,
)

# A ratio may move against its direction by no more than this fraction
# of the committed snapshot's value (--check-against).
REGRESSION_TOLERANCE = 0.15
# Absolute within-run floor asserted by the full run.  The hard floor
# sits well below the measured ratio (recorded in BENCH_decode.json) so
# shared-runner noise cannot flake the gate, while the trajectory check
# above keeps the recorded ratio honest.
SEQ_VS_BATCHED_FLOOR = 2.5


def random_connected_adjacency(m: int, rng: np.random.Generator, extra_edges: int = 2) -> np.ndarray:
    """A connected join graph: a random spanning tree plus a few extras."""
    adj = np.zeros((m, m), dtype=bool)
    order = rng.permutation(m)
    for i in range(1, m):
        a, b = order[i], order[rng.integers(0, i)]
        adj[a, b] = adj[b, a] = True
    for _ in range(extra_edges):
        a, b = rng.integers(0, m, size=2)
        if a != b:
            adj[a, b] = adj[b, a] = True
    return adj


def build_cases(num_queries: int, m: int, d_model: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [
        (nn.Tensor(rng.normal(size=(1, m, d_model))), random_connected_adjacency(m, rng))
        for _ in range(num_queries)
    ]


def _candidates_match(fast, slow) -> bool:
    """The decode-level contract of ``tests/sequential_oracle.py``."""
    return len(fast) == len(slow) and all(
        a.positions == b.positions
        and a.legal == b.legal
        and abs(a.log_prob - b.log_prob) <= LOG_PROB_TOLERANCE
        for a, b in zip(fast, slow)
    )


def interleaved_best(phases: dict, repeats: int) -> dict[str, float]:
    """Best-of-N seconds per phase.  Each round times every phase once,
    so slow drift (thermal / frequency scaling) cannot bias one phase.
    GC is paused inside the timed region (standard timeit hygiene —
    otherwise collections land at random points on whichever phase is
    running)."""
    best = {name: float("inf") for name in phases}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            for name, fn in phases.items():
                t0 = time.perf_counter()
                fn()
                best[name] = min(best[name], time.perf_counter() - t0)
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best


def run_rerank_phases(repeats: int, batch: int = 16, beam_width: int = 3, seed: int = 0):
    """(best seconds per phase, mismatches) for one warm batch decoded
    with and without the cost rerank, in this process."""
    config = ModelConfig(d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2)
    db = generate_database(seed=5, num_tables=8, row_range=(80, 300), attr_range=(2, 3))
    featurizer = DatabaseFeaturizer(db, config)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    model = MTMLFQO(config)
    model.attach_featurizer(db.name, featurizer)
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=6, max_tables=8, seed=seed))
    items = QueryLabeler(db).label_many(generator.generate(2 * batch))[:batch]
    if len(items) < batch:
        raise RuntimeError(f"only {len(items)} of {batch} rerank-phase queries could be labeled")
    session = model.inference_session(db.name)

    def decode(rerank: bool):
        return session.predict_join_orders(items, beam_width=beam_width, rerank_with_cost=rerank)

    phases = {"rerank_off": lambda: decode(False), "rerank_on": lambda: decode(True)}
    # Warm the feature caches, and check the batched rerank against the
    # per-query one while at it.
    warm = {name: fn() for name, fn in phases.items()}
    single = [
        model.predict_join_order(db.name, item, beam_width=beam_width, rerank_with_cost=True)
        for item in items
    ]
    mismatches = sum(got != want for got, want in zip(warm["rerank_on"], single))
    return interleaved_best(phases, repeats), mismatches


def run_benchmark(
    num_queries: int = 8,
    m: int = 8,
    beam_width: int = 8,
    d_model: int = 48,
    decoder_layers: int = 2,
    repeats: int = 7,
    seed: int = 0,
) -> dict:
    config = ModelConfig(d_model=d_model, num_heads=4, decoder_layers=decoder_layers)
    trans_jo = TransJO(config, np.random.default_rng(seed))
    cases = build_cases(num_queries, m, d_model, seed=seed + 1)
    def sequential():
        with nn.no_grad():
            return [
                beam_search_join_order_sequential(trans_jo, memory, adjacency, beam_width=beam_width)
                for memory, adjacency in cases
            ]

    def fast_batched():
        return [
            beam_search_join_order(trans_jo, memory, adjacency, beam_width=beam_width)
            for memory, adjacency in cases
        ]

    phases = {"sequential": sequential, "fast_batched": fast_batched}

    # Parity first: the speedup is meaningless if the answers differ.
    # (This run doubles as warmup for both phases.)
    reference, fast = sequential(), fast_batched()
    mismatches = sum(not _candidates_match(got, want) for got, want in zip(fast, reference))

    best = interleaved_best(phases, repeats)
    rerank_best, rerank_mismatches = run_rerank_phases(repeats, seed=seed)

    return {
        "meta": {
            "num_queries": num_queries,
            "m": m,
            "beam_width": beam_width,
            "d_model": d_model,
            "decoder_layers": decoder_layers,
            "repeats": repeats,
            "seed": seed,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "mismatches": mismatches + rerank_mismatches,
        "phases_ms": {
            name: 1000.0 * seconds for name, seconds in {**best, **rerank_best}.items()
        },
        "qps": {name: num_queries / seconds for name, seconds in best.items()},
        "speedups": {"fast_vs_sequential": best["sequential"] / best["fast_batched"]},
        "rerank_overhead": rerank_best["rerank_on"] / rerank_best["rerank_off"],
    }


def save_snapshot(result: dict, path: str) -> None:
    with open(path, "w") as f:
        json.dump(result, f, indent=2, sort_keys=True)
        f.write("\n")


def ratio_regression(name: str, fresh: float, committed: float, higher_is_better: bool) -> str | None:
    """A failure message when ``fresh`` is more than
    ``REGRESSION_TOLERANCE`` worse than ``committed``, else None."""
    if higher_is_better:
        limit = committed * (1.0 - REGRESSION_TOLERANCE)
        worse = fresh < limit
    else:
        limit = committed * (1.0 + REGRESSION_TOLERANCE)
        worse = fresh > limit
    if not worse:
        return None
    side = "below" if higher_is_better else "above"
    return (
        f"{name} regressed: fresh {fresh:.2f}x is {side} {limit:.2f}x "
        f"({REGRESSION_TOLERANCE:.0%} {side} committed {committed:.2f}x)"
    )


def check_against(result: dict, path: str) -> list[str]:
    """Perf-trajectory gate: compare a fresh run to the committed snapshot.

    Returns a list of failure messages (empty = pass).  Only ratios are
    compared — absolute times differ across machines, but the
    fast/sequential and rerank-on/off ratios are properties of the
    code, each measured within one process.
    """
    with open(path) as f:
        snapshot = json.load(f)
    checks = [
        ratio_regression(
            "fast_vs_sequential speedup",
            result["speedups"]["fast_vs_sequential"],
            snapshot["speedups"]["fast_vs_sequential"],
            higher_is_better=True,
        ),
        ratio_regression(
            "rerank_overhead",
            result["rerank_overhead"],
            snapshot["rerank_overhead"],
            higher_is_better=False,
        ),
    ]
    return [failure for failure in checks if failure]


def report(result: dict, required_seq: float | None) -> None:
    meta = result["meta"]
    print("Trans_JO decode trajectory: sequential / fast batched")
    print("-" * 68)
    print(
        f"queries={meta['num_queries']}  tables={meta['m']}  "
        f"beam_width={meta['beam_width']}  d_model={meta['d_model']}  "
        f"layers={meta['decoder_layers']}"
    )
    for name, qps in result["qps"].items():
        print(f"{name:<16}{result['phases_ms'][name]:>10.1f} ms   {qps:>8.1f} qps")
    seq_gate = f"(required >= {required_seq:.1f}x)" if required_seq else "(informational)"
    print(f"{'fast vs seq':<16}{result['speedups']['fast_vs_sequential']:>10.2f} x   {seq_gate}")
    print("one warm 16-query batch, beam width 3, predict_join_orders:")
    for name in ("rerank_off", "rerank_on"):
        print(f"{name:<16}{result['phases_ms'][name]:>10.1f} ms")
    print(f"{'rerank overhead':<16}{result['rerank_overhead']:>10.2f} x   (on / off)")
    parity = (
        f"same candidates, |d log_prob| <= {LOG_PROB_TOLERANCE:g}"
        if result["mismatches"] == 0 else "MISMATCH"
    )
    print(f"{'parity':<16}{parity}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: asserts candidate parity only and reports the "
        "speedups (timing thresholds are left to the full run to avoid "
        "flaking on noisy shared runners)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the fast phase under kernels.profiled() and dump per-op "
        "call / time / allocation counters",
    )
    parser.add_argument("--save", metavar="PATH", help="write the result snapshot as JSON")
    parser.add_argument(
        "--check-against",
        metavar="PATH",
        help="fail if the fresh fast-vs-sequential speedup is more than 15%% below, "
        "or the fresh rerank overhead more than 15%% above, the committed "
        "snapshot's (perf trajectory gate)",
    )
    args = parser.parse_args(argv)

    if args.smoke:
        result = run_benchmark(num_queries=4, m=8, beam_width=8, repeats=2)
        required_seq = None
    else:
        result = run_benchmark(num_queries=8, m=8, beam_width=8, repeats=7)
        required_seq = SEQ_VS_BATCHED_FLOOR

    report(result, required_seq)

    if args.profile:
        config = ModelConfig(d_model=48, num_heads=4, decoder_layers=2)
        trans_jo = TransJO(config, np.random.default_rng(0))
        cases = build_cases(result["meta"]["num_queries"], 8, 48, seed=1)
        with nn.kernels.profiled() as profile:
            for memory, adjacency in cases:
                beam_search_join_order(trans_jo, memory, adjacency, beam_width=8)
        print()
        print("kernel profile (one decode sweep):")
        print(profile.table())

    if args.save:
        save_snapshot(result, args.save)
        print(f"snapshot written to {args.save}")

    failures = []
    if result["mismatches"]:
        failures.append(f"{result['mismatches']} candidate mismatches between decode paths")
    if required_seq is not None and result["speedups"]["fast_vs_sequential"] < required_seq:
        failures.append(
            f"fast_vs_sequential speedup {result['speedups']['fast_vs_sequential']:.2f}x "
            f"below required {required_seq:.1f}x"
        )
    if args.check_against:
        failures.extend(check_against(result, args.check_against))

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
