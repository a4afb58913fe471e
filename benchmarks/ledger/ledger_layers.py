"""The traced run: per-layer attribution of one workload, from outside.

Nothing under ``src/`` is touched.  Three sources feed the per-layer
metrics of ``BENCHMARK.json``:

*obs*     the ``queue_wait`` / ``batch`` / ``decode`` / ``request`` spans
          ``repro.obs`` already records for a service built with an
          enabled ``Telemetry``;
*report*  ``OptimizerService.report()`` of that same service;
*replay*  a staged replay on the main thread that calls each layer's
          public functions in request order — ``request_key`` →
          ``forward_batch`` → ``join_order_memory`` → ``drive_beam_states``
          → ``PlanCache.put/get`` — around fixed batches of the workload's
          own stream, recording one span per call (``attrs["parent"]``
          names the span that caused it, one trace id per batch) with the
          ``nn.kernels.profiled()`` table underneath, and the same for one
          adaptation cycle (``warm_start`` → ``train`` →
          ``evaluate_regret_gate`` → ``save_checkpoint`` → ``swap_model``).

Every traced run measures every layer, so all workloads emit all
metrics; what differs is the stream the layers are driven with and the
batch size (2 for the serve workloads, 16 for ``decode_batch``, the
8-query gate slice for ``adapt_cycle``).  Spans stay in memory and are
written once, at the end, with ``obs.export.write_snapshot``.
"""

from __future__ import annotations

import gc
import os
import shutil
import statistics
import time
from collections import defaultdict

from repro import nn
from repro.core import BeamSearchState, JointTrainer, drive_beam_states, load_checkpoint
from repro.obs import Telemetry, TelemetryConfig, telemetry_snapshot, write_snapshot
from repro.optimizer import plan_with_order
from repro.serve import (
    OptimizerService,
    PlanCache,
    ServeConfig,
    evaluate_regret_gate,
    split_experience,
)

from ledger_workloads import (
    RESULTS_DIR,
    ServeUnique,
    ServeWorkload,
    batched_orders,
    plan_cost_ratio,
    start_adaptation,
    summarise,
)

__all__ = ["traced_run"]

TRACE_CAPACITY = 1 << 18     # sized so that nothing is dropped
NATIVE_SHARE = 0.2           # of --seconds: the workload's own loop, untraced then traced
PROBE_SHARE = 0.15           # of --seconds: the serve probe of a workload that has no service
KERNEL_OPS = ("linear", "matmul", "layer_norm", "softmax")


def _median(values) -> float:
    return float(statistics.median(values))


def _p50_ms(durations_s, factor: float) -> float:
    return 1e3 * _median(durations_s) / factor if durations_s else 0.0


# ----------------------------------------------------------------------
# serve layer: spans + report
# ----------------------------------------------------------------------
def serve_probe(workload, seconds: float, telemetry):
    """Drive the workload's stream, cyclically, through a traced default
    service; returns the rounds and the service's report."""
    probe = ServeUnique(workload.fixture, workload.seed)
    probe.set_pool(workload.replay_items())
    probe.bring_up(telemetry)
    try:
        rounds = probe.measure(seconds)
        report = probe.service.report()
    finally:
        probe.tear_down()
    workload.failures.extend(f"serve probe: {failure}" for failure in probe.failures)
    return rounds, report


def serve_values(rounds, report, tracer) -> dict:
    """The *obs* and *report* metrics of the serve layer."""
    factor = _median([r.factor for r in rounds])
    by_trace: dict = defaultdict(dict)
    by_name: dict = defaultdict(list)
    for span in tracer.spans():
        by_name[span.name].append(span.duration_s)
        by_trace[span.trace_id][span.name] = span.duration_s
    # What a decoded request spent outside queue wait and decode: batch
    # formation, waking the caller, the service's own bookkeeping.
    overhead = [
        spans["request"] - spans.get("queue_wait", 0.0) - spans["decode"]
        for spans in by_trace.values()
        if "request" in spans and "decode" in spans
    ]
    return {
        "serve.cache_hit_rate": report.cache_hit_rate,
        "serve.cache_entries": report.cache_entries,
        "serve.queue_wait_ms_p50": _p50_ms(by_name["queue_wait"], factor),
        "serve.batch_span_ms_p50": _p50_ms(by_name["batch"], factor),
        "serve.decode_span_ms_p50": _p50_ms(by_name["decode"], factor),
        "serve.batch_size_mean": report.mean_batch_size,
        "serve.replica_busy_share": report.replica_utilization[0],
        "serve.model_calls": report.model_calls,
        "serve.coalesced": report.coalesced,
        "serve.overhead_ms": _p50_ms(overhead, factor),
        "serve.latency_p99_ms": summarise(rounds).latency_p99_ms,
    }


# ----------------------------------------------------------------------
# core / nn / optimizer layers: staged replay of the decode path
# ----------------------------------------------------------------------
class _Stages:
    """Raw (name, start, end, parent) marks of one staged batch or cycle."""

    def __init__(self):
        self.marks: list = []

    def timed(self, name: str, call, parent: "str | None" = "staged.batch"):
        start = time.perf_counter()
        out = call()
        self.marks.append((name, start, time.perf_counter(), parent))
        return out

    def seconds(self, name: str) -> float:
        return sum(end - start for mark, start, end, _ in self.marks if mark == name)

    def record(self, tracer, trace_id: int, root: str = "staged.batch") -> None:
        """One span per mark, under a ``root`` span covering its children."""
        children = [mark for mark in self.marks if mark[3] == root]
        tracer.record(trace_id, root, children[0][1], children[-1][2], {"parent": None})
        for name, start, end, parent in self.marks:
            tracer.record(trace_id, name, start, end, {"parent": parent})


def replay_decode(workload, tracer) -> dict:
    fixture = workload.fixture
    model, db_name, clock = fixture.model, fixture.db.name, fixture.clock
    size = workload.batch_size
    scale = fixture.scale
    count = scale.replay_batches_large if size >= 16 else scale.replay_batches_small
    items = workload.replay_items()
    batches = [
        [items[(index * size + offset) % len(items)] for offset in range(size)]
        for index in range(count)
    ]
    # Never started: it supplies request_key() and the decode policy.
    service = OptimizerService(model, db_name, ServeConfig())
    cache = PlanCache(service.config.plan_cache_size)
    session = model.inference_session(db_name)
    decode = service.config.decode_kwargs()
    no_rerank = {**decode, "rerank_with_cost": False}
    width = decode["beam_width"] or model.config.beam_width

    model.clear_cache()
    for batch in batches:  # warm the feature caches and the scratch arena
        session.predict_join_orders(batch, **decode)

    samples: dict = defaultdict(list)
    steps_total = 0
    with nn.no_grad():
        for batch in batches:
            stages = _Stages()
            with clock.section() as section:
                keys = stages.timed(
                    "serve.request_key", lambda: [service.request_key(item) for item in batch]
                )
                shared, _, encodings = stages.timed(
                    "core.forward_batch", lambda: model.forward_batch(db_name, batch)
                )
                memories = stages.timed(
                    "core.join_order_memory",
                    lambda: [
                        model.join_order_memory(shared[i], encodings[i], item.query.tables)
                        for i, item in enumerate(batch)
                    ],
                )

                def beam():
                    states = [
                        BeamSearchState(
                            item.query.adjacency_matrix(), beam_width=width,
                            enforce_legality=decode["enforce_legality"],
                        )
                        for item in batch
                    ]
                    drive_beam_states(model.trans_jo, memories, states, scratch=session.scratch)
                    return [
                        state.candidates()[0].tables(item.query.tables)
                        for state, item in zip(states, batch)
                    ]

                top = stages.timed("core.drive_beam_states", beam)
                stages.timed(
                    "serve.cache_put", lambda: [cache.put(k, o) for k, o in zip(keys, top)]
                )
                stages.timed("serve.cache_get", lambda: [cache.get(key) for key in keys])
                stages.timed(
                    "core.encode_query.warm",
                    lambda: [model.encode_query(db_name, item) for item in batch], parent=None,
                )
                plain = stages.timed(
                    "core.predict_join_orders.no_rerank",
                    lambda: session.predict_join_orders(batch, **no_rerank), parent=None,
                )
                full = stages.timed(
                    "core.predict_join_orders",
                    lambda: session.predict_join_orders(batch, **decode), parent=None,
                )
                stages.timed(
                    "optimizer.plan_with_order",
                    lambda: [
                        plan_with_order(item.query, order, fixture.estimator)
                        for item, order in zip(batch, full)
                    ],
                    parent=None,
                )
            stages.record(tracer, tracer.new_trace())
            if top != plain:
                workload.fail(f"staged beam top candidate {top} != un-reranked decode {plain}")
            ref = {name: stages.seconds(name) / section.factor for name, *_ in stages.marks}
            # One decoder forward per step and distinct table count.
            steps = sum({item.query.num_tables for item in batch})
            steps_total += steps
            onecall = ref["core.predict_join_orders"]
            rerank = onecall - ref["core.predict_join_orders.no_rerank"]
            staged = (
                ref["core.forward_batch"] + ref["core.join_order_memory"]
                + ref["core.drive_beam_states"] + rerank
            )
            samples["serve.request_key_us"].append(1e6 * ref["serve.request_key"] / size)
            samples["serve.cache_get_us"].append(1e6 * ref["serve.cache_get"] / size)
            samples["serve.cache_put_us"].append(1e6 * ref["serve.cache_put"] / size)
            samples["core.featurize_warm_us_per_query"].append(
                1e6 * ref["core.encode_query.warm"] / size
            )
            samples["core.shared_ms_per_batch"].append(1e3 * ref["core.forward_batch"])
            samples["core.memory_ms_per_batch"].append(1e3 * ref["core.join_order_memory"])
            samples["core.beam_ms_per_batch"].append(1e3 * ref["core.drive_beam_states"])
            samples["core.beam_ms_per_step"].append(1e3 * ref["core.drive_beam_states"] / steps)
            samples["core.rerank_ms_per_batch"].append(1e3 * rerank)
            samples["core.decode_ms_per_batch"].append(1e3 * onecall)
            samples["core.staged_vs_onecall_ratio"].append(staged / onecall)
            samples["optimizer.plan_with_order_us"].append(
                1e6 * ref["optimizer.plan_with_order"] / size
            )

        for batch in batches:  # (F) with nothing cached
            model.clear_cache()
            with clock.section() as section:
                start = time.perf_counter()
                for item in batch:
                    model.encode_query(db_name, item)
                cold_s = time.perf_counter() - start
            samples["core.featurize_cold_ms_per_query"].append(1e3 * cold_s / section.factor / size)

    values = {name: _median(series) for name, series in samples.items()}
    values["core.beam_steps_per_batch"] = steps_total / count

    # Kernel table under the model stages: one profiled decode per batch.
    wall_s, factors = 0.0, []
    with nn.kernels.profiled() as profile:
        for batch in batches:
            with clock.section() as section:
                session.predict_join_orders(batch, **decode)
            wall_s += section.wall_s
            factors.append(section.factor)
    factor = _median(factors)
    ops = profile.as_dict()
    kernel_s = sum(op["seconds"] for op in ops.values())
    values["nn.kernel_ms_per_batch"] = 1e3 * kernel_s / factor / count
    values["nn.kernel_share"] = kernel_s / wall_s
    # Bytes the kernels wrote, computed from output shapes — not a
    # measured bandwidth.
    values["nn.kernel_mb_per_batch"] = sum(op["bytes"] for op in ops.values()) / 1e6 / count
    for name in KERNEL_OPS:
        op = ops.get(name, {"calls": 0, "seconds": 0.0})
        values[f"nn.{name}.calls"] = op["calls"] / count
        values[f"nn.{name}.ms"] = 1e3 * op["seconds"] / factor / count
    values["nn.scratch_buffers"] = len(session.scratch)
    return values


# ----------------------------------------------------------------------
# adaptation path: fixed worker cycles, then the same cycle staged
# ----------------------------------------------------------------------
def replay_adapt(workload, telemetry) -> "tuple[dict, float]":
    """Per-layer values of the adaptation path, and how well the staged
    cycle's stages add up to ``run_once()`` (staged / one call).

    A fixed number of times: one ``run_once()`` of a default worker,
    then the same cycle by hand, stage by stage, on the same service.
    """
    fixture = workload.fixture
    clock, db, scale = fixture.clock, fixture.db, fixture.scale
    tracer = telemetry.tracer
    directory = RESULTS_DIR / f"ledger_ckpt_probe_{workload.name}_{workload.seed}"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    service, buffer, worker = start_adaptation(
        fixture, workload.experience(), directory / "worker", telemetry
    )
    config = worker.config
    train, validation = split_experience(buffer.snapshot(), config.validation_fraction)
    examples = [(db.name, item) for item in train]
    cycle_s: list = []
    samples: dict = defaultdict(list)
    try:
        for _ in range(scale.adapt_probe_cycles):
            # Both start on a live model with cold feature caches; the
            # worker's gate would otherwise warm them for the staged one.
            service.session.model.clear_cache()
            with clock.section() as section:
                worker.run_once()
            cycle_s.append(section.ref_s)

            stages = _Stages()
            live = service.session.model
            live.clear_cache()
            with clock.section() as section:
                base = stages.timed(
                    "core.save_checkpoint",
                    lambda: JointTrainer(live).save_checkpoint(str(directory / "base")),
                    parent="staged.cycle",
                )
                trainer = stages.timed(
                    "core.warm_start",
                    lambda: JointTrainer.warm_start(base, fixture.databases),
                    parent="staged.cycle",
                )
                result = stages.timed(
                    "core.train",
                    lambda: trainer.train(
                        examples, epochs=config.fine_tune_epochs,
                        batch_size=config.batch_size, seed=config.seed,
                    ),
                    parent="staged.cycle",
                )
                stages.timed(
                    "serve.evaluate_regret_gate",
                    lambda: evaluate_regret_gate(
                        db, live, trainer.model, validation,
                        decode=service.config.decode_kwargs(), estimator=fixture.estimator,
                        tolerance_ms=config.regret_tolerance_ms,
                        max_intermediate_rows=config.max_intermediate_rows,
                    ),
                    parent="staged.cycle",
                )
                stages.timed(
                    "core.load_checkpoint",
                    lambda: load_checkpoint(base, databases=fixture.databases),
                    parent="staged.cycle",
                )
                stages.timed(
                    "serve.swap_model", lambda: service.swap_model(trainer.model),
                    parent="staged.cycle",
                )
            stages.record(tracer, tracer.new_trace(), root="staged.cycle")
            for name in {mark[0] for mark in stages.marks}:
                samples[name].append(stages.seconds(name) / section.factor)
        counters = worker.counters()
        checkpoint_bytes = os.path.getsize(base)
    finally:
        worker.stop()
        service.stop()
        shutil.rmtree(directory, ignore_errors=True)

    ref = {name: _median(series) for name, series in samples.items()}
    steps = config.fine_tune_epochs * -(-len(train) // config.batch_size)
    accepted_share = counters["swaps_accepted"] / max(counters["retrains"], 1)
    # What run_once() does, from its stages: only accepted cycles save and swap.
    staged_cycle_s = (
        ref["core.warm_start"] + ref["core.train"] + ref["serve.evaluate_regret_gate"]
        + accepted_share * (ref["core.save_checkpoint"] + ref["serve.swap_model"])
    )
    values = {
        "serve.gate_ms": 1e3 * ref["serve.evaluate_regret_gate"],
        "serve.swap_ms": 1e3 * ref["serve.swap_model"],
        "serve.swaps_accepted": counters["swaps_accepted"],
        "serve.swaps_rejected": counters["swaps_rejected"],
        "core.warm_start_ms": 1e3 * ref["core.warm_start"],
        "core.train_step_ms": 1e3 * ref["core.train"] / steps,
        "core.train_examples_per_s": config.fine_tune_epochs * len(train) / ref["core.train"],
        "core.train_final_loss": result.final_loss,
        "core.checkpoint_save_ms": 1e3 * ref["core.save_checkpoint"],
        "core.checkpoint_load_ms": 1e3 * ref["core.load_checkpoint"],
        "core.checkpoint_bytes": checkpoint_bytes,
    }
    return values, staged_cycle_s / _median(cycle_s)


def stage_table(tracer) -> list:
    """Per span name: count, total and self time (span minus the spans
    that name it as parent), in raw milliseconds."""
    total: dict = defaultdict(float)
    count: dict = defaultdict(int)
    children: dict = defaultdict(float)
    for span in tracer.spans():
        total[span.name] += span.duration_s
        count[span.name] += 1
        parent = (span.attrs or {}).get("parent")
        if parent:
            children[parent] += span.duration_s
    return [
        {
            "name": name, "count": count[name], "total_ms": 1e3 * total[name],
            "self_ms": 1e3 * (total[name] - children.get(name, 0.0)),
        }
        for name in sorted(total)
    ]


# ----------------------------------------------------------------------
def traced_run(workload, seconds: float, environment: dict) -> dict:
    """All per-layer metrics of ``workload`` (which is up, untraced)."""
    fixture = workload.fixture
    gc_before = sum(generation["collections"] for generation in gc.get_stats())

    plain = summarise(workload.measure(NATIVE_SHARE * seconds))
    workload.tear_down()
    telemetry = Telemetry(TelemetryConfig(trace_capacity=TRACE_CAPACITY))
    workload.bring_up(telemetry)
    cpu_start, wall_start = time.process_time(), time.perf_counter()
    rounds = workload.measure(NATIVE_SHARE * seconds)
    cpu_share = (time.process_time() - cpu_start) / (time.perf_counter() - wall_start)
    traced = summarise(rounds)
    workload.check()
    if isinstance(workload, ServeWorkload):
        report = workload.service.report()
        workload.tear_down()
    else:
        workload.tear_down()
        rounds, report = serve_probe(workload, PROBE_SHARE * seconds, telemetry)

    values = serve_values(rounds, report, telemetry.tracer)
    values.update(replay_decode(workload, telemetry.tracer))
    adapt_values, adapt_reconciliation = replay_adapt(workload, telemetry)
    values.update(adapt_values)
    if workload.reconciles_cycle:
        values["core.staged_vs_onecall_ratio"] = adapt_reconciliation

    session = fixture.model.inference_session(fixture.db.name)
    _, exec_ms = plan_cost_ratio(fixture, batched_orders(session, fixture.probe_items))
    values.update({
        "core.train_encoders_s": fixture.stage_s["train_encoders"],
        "core.pretrain_s": fixture.stage_s["pretrain"],
        "datagen.generate_database_s": fixture.stage_s["datagen"],
        "workload.generate_ms_per_query": workload.pool_costs.generate_ms_per_query,
        "workload.label_ms_per_query": workload.pool_costs.label_ms_per_query,
        "engine.exec_order_ms_per_query": exec_ms,
        "obs.trace_overhead_ratio": traced.throughput_qps / plain.throughput_qps,
        "obs.spans_recorded": len(telemetry.tracer.spans()),
        "obs.spans_dropped": telemetry.tracer.dropped,
        "proc.cpu_share": cpu_share,
        "proc.gc_collections": (
            sum(generation["collections"] for generation in gc.get_stats()) - gc_before
        ),
        "proc.host_factor": fixture.clock.median_factor(),
    })
    if values["obs.spans_dropped"]:
        workload.fail(f"{values['obs.spans_dropped']} spans dropped; raise TRACE_CAPACITY")

    snapshot = telemetry_snapshot(telemetry)
    snapshot["ledger"] = {
        "workload": workload.name,
        "environment": environment,
        "per_layer": values,
        "stages": stage_table(telemetry.tracer),
    }
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    write_snapshot(RESULTS_DIR / f"ledger_trace_{workload.name}.json", snapshot)
    return values
