"""Benchmark: telemetry overhead on the serving hot path.

The observability contract (DESIGN.md "Observability"): a handle-present
but *disabled* :class:`repro.obs.Telemetry` costs one int check per
touchpoint — serving throughput must stay within 3% of the true
no-telemetry baseline (``telemetry=None``).  This load generator drives
the same 16-client request stream through a service three
ways and compares min-of-repeats wall clock:

1. **baseline** — ``telemetry=None``: no telemetry object anywhere;
2. **disabled** — ``Telemetry.disabled()``: the handle threads through
   every layer but the one-int gate short-circuits spans and SLOs;
3. **enabled** — ``Telemetry()``: full tracing, SLOs, and snapshot.

The enabled run also functions as the end-to-end observability check:
its snapshot must contain at least one *complete* request trace
(enqueue -> queue_wait -> batch -> decode -> cache event), the drain
worker's busy-time histogram, and a per-tenant SLO burn rate.  Every run writes
``BENCH_obs.json``; CI uploads it as an artifact.

Run:
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py           # full
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke   # CI

This file is a standalone script (not collected by the tier-1 pytest
run) so the CI obs job can run it directly.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread per op *before* numpy loads: the 3% bound
# compares wall clocks, so BLAS-internal threading noise would swamp
# the effect being measured.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import random
import sys
import threading
import time

from repro.core import DatabaseFeaturizer, ModelConfig, MTMLFQO
from repro.datagen import generate_database
from repro.obs import Telemetry, telemetry_snapshot, write_snapshot
from repro.serve import OptimizerService, ServeConfig
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

CONCURRENCY = 16
OVERHEAD_BOUND = 1.03  # disabled path vs no-telemetry baseline
REQUEST_SPANS = {"enqueue", "queue_wait", "batch", "decode"}
SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs.json")
TRACE_SNAPSHOT_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_obs_traces.json")


def build_fixture(num_queries: int, seed: int = 5):
    config = ModelConfig(d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2)
    db = generate_database(seed=seed, num_tables=8, row_range=(80, 300), attr_range=(2, 3))
    featurizer = DatabaseFeaturizer(db, config)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=5, seed=3))
    items = QueryLabeler(db).label_many(generator.generate(num_queries), with_optimal_order=False)
    model = MTMLFQO(config)
    model.attach_featurizer(db.name, featurizer)
    return model, db, items


def request_stream(items, occurrences: int = 2, seed: int = 11):
    """Production-shaped: each query appears twice so cache hits occur."""
    stream = [item for item in items for _ in range(occurrences)]
    random.Random(seed).shuffle(stream)
    return stream


def run_served(model, db, requests, telemetry):
    """One pass of ``requests`` from ``CONCURRENCY`` client threads."""
    model.clear_cache()
    service = OptimizerService(
        model,
        db.name,
        ServeConfig(
            max_batch_size=CONCURRENCY,
            max_wait_ms=4.0,
            plan_cache_size=1024,
        ),
        telemetry=telemetry,
    )
    work = list(requests)
    lock = threading.Lock()

    def client():
        while True:
            with lock:
                if not work:
                    return
                item = work.pop()
            service.optimize(item)

    with service:
        start = time.perf_counter()
        threads = [threading.Thread(target=client) for _ in range(CONCURRENCY)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        report = service.report()
    assert report.completed == len(requests), (report.completed, len(requests))
    return elapsed, report


def measure_modes(model, db, requests, repeats: int, factories: dict):
    """min-of-``repeats`` wall clock per mode, repeats *interleaved*
    round-robin so machine drift during the run lands on every mode
    equally (sequential blocks would bias whichever mode ran during a
    noisy stretch).  Telemetry is rebuilt per repeat."""
    results = {
        name: {"seconds": float("inf"), "report": None, "telemetry": None}
        for name in factories
    }
    for _ in range(repeats):
        for name, make_telemetry in factories.items():
            candidate = make_telemetry()
            elapsed, run_report = run_served(model, db, requests, candidate)
            best = results[name]
            if elapsed < best["seconds"]:
                best.update(seconds=elapsed, report=run_report, telemetry=candidate)
    return results


def check_enabled_snapshot(telemetry, db_name: str) -> list[str]:
    """The acceptance checks on the enabled run; returns failures."""
    failures: list[str] = []
    complete = telemetry.tracer.complete_traces(REQUEST_SPANS)
    cache_complete = [
        tid
        for tid in complete
        if any(
            s.name in ("cache.fill", "cache.hit")
            for s in telemetry.tracer.trace(tid)
        )
    ]
    if not cache_complete:
        failures.append(
            "no complete request trace (enqueue -> queue_wait -> batch -> "
            "decode -> cache event) in the enabled run"
        )
    busy = [m for m in telemetry.registry.metrics() if m.name == "serve.busy_s"]
    if len(busy) != 1 or busy[0].count == 0:
        failures.append(f"expected one populated serve.busy_s histogram, found {len(busy)}")
    status = telemetry.slo.status(db_name)
    if status is None or status.total == 0:
        failures.append(f"no SLO state recorded for tenant {db_name!r}")
    return failures


def print_mode(name: str, seconds: float, requests: int, baseline_s: float) -> None:
    ratio = seconds / baseline_s if baseline_s > 0 else float("inf")
    print(
        f"  {name:<10}{1000 * seconds:>10.1f} ms   {requests / seconds:>8.1f} q/s"
        f"   {ratio:>6.3f}x of baseline"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="fast CI mode: smaller workload, same checks",
    )
    parser.add_argument(
        "--output",
        default=SNAPSHOT_PATH,
        help="where to write the BENCH_obs.json result summary",
    )
    parser.add_argument(
        "--trace-output",
        default=TRACE_SNAPSHOT_PATH,
        help="where to write the enabled run's full telemetry snapshot "
        "(render it with: python -m repro.obs BENCH_obs_traces.json)",
    )
    args = parser.parse_args(argv)

    num_queries, repeats = (16, 5) if args.smoke else (256, 7)
    model, db, items = build_fixture(num_queries)
    requests = request_stream(items, occurrences=2)
    model.predict_join_orders(db.name, items[:4])  # warm BLAS + code paths
    run_served(model, db, requests, None)  # warm the serving stack; discarded

    print(
        f"Telemetry overhead ({CONCURRENCY} clients, "
        f"{len(requests)} requests, min of {repeats} interleaved)"
    )
    print("-" * 64)
    modes = measure_modes(
        model,
        db,
        requests,
        repeats,
        {"baseline": lambda: None, "disabled": Telemetry.disabled, "enabled": Telemetry},
    )
    baseline, disabled, enabled = modes["baseline"], modes["disabled"], modes["enabled"]

    print_mode("baseline", baseline["seconds"], len(requests), baseline["seconds"])
    print_mode("disabled", disabled["seconds"], len(requests), baseline["seconds"])
    print_mode("enabled", enabled["seconds"], len(requests), baseline["seconds"])

    disabled_ratio = disabled["seconds"] / baseline["seconds"]
    enabled_ratio = enabled["seconds"] / baseline["seconds"]
    failures = check_enabled_snapshot(enabled["telemetry"], db.name)
    if disabled_ratio > OVERHEAD_BOUND:
        failures.append(
            f"disabled-telemetry run {disabled_ratio:.3f}x of baseline "
            f"(bound {OVERHEAD_BOUND:.2f}x)"
        )

    payload = telemetry_snapshot(enabled["telemetry"])
    trace_file = write_snapshot(args.trace_output, payload)
    print(f"telemetry snapshot: {os.path.abspath(trace_file)}")
    print(f"  render with: PYTHONPATH=src python -m repro.obs {os.path.relpath(trace_file)}")

    status = enabled["telemetry"].slo.status(db.name)
    summary = {
        "benchmark": "obs_overhead",
        "smoke": args.smoke,
        "client_concurrency": CONCURRENCY,
        "requests": len(requests),
        "repeats": repeats,
        "seconds": {
            "baseline": round(baseline["seconds"], 6),
            "disabled": round(disabled["seconds"], 6),
            "enabled": round(enabled["seconds"], 6),
        },
        "overhead": {
            "disabled_vs_baseline": round(disabled_ratio, 4),
            "enabled_vs_baseline": round(enabled_ratio, 4),
            "bound_disabled": OVERHEAD_BOUND,
        },
        "enabled_run": {
            "complete_traces": len(
                enabled["telemetry"].tracer.complete_traces(REQUEST_SPANS)
            ),
            "spans": len(enabled["telemetry"].tracer.spans()),
            "slo": status.to_dict() if status is not None else None,
        },
    }
    output = os.path.abspath(args.output)
    with open(output, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"snapshot: {output}")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
