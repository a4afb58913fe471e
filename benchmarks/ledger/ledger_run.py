"""One ledger run: set-up, the timed section or the traced run, result.

``run_workload`` returns the object ``run.py`` prints as its last line:
``{"correct", "attempted", "failed", "metrics"}`` with exactly the
``end_to_end`` (untraced) or ``per_layer`` (traced) names of
``BENCHMARK.json``, which is the single source of names and units.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys

from ledger_fixture import REPO_ROOT, Fixture, environment
from ledger_workloads import WORKLOADS, plan_cost_ratio, summarise

__all__ = ["load_spec", "run_workload"]


def load_spec() -> dict:
    with open(REPO_ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _say(message: str) -> None:
    print(message, file=sys.stderr)


def _result(spec_metrics: list, values: dict, workload) -> dict:
    return {
        "correct": not workload.failures,
        "attempted": max(workload.attempted, 1),
        "failed": len(workload.failures),
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec_metrics
        },
    }


def run_workload(
    name: str, fixture: Fixture, seed: int, seconds: float, trace: bool,
    import_s: float = 0.0, pinned_core: int = -1,
) -> dict:
    """Run workload ``name`` once on ``fixture`` and return its result."""
    spec = load_spec()
    clock = fixture.clock
    workload = WORKLOADS[name](fixture, seed)

    with clock.section() as section:
        workload.prepare()
    inputs_s = section.ref_s
    # Set-up several times, report the median: the one-off stages above
    # are seconds of single-threaded work, the bring-up is short and
    # starts threads, so it is the part a single reading gets wrong.
    bring_up_s = []
    for attempt in range(fixture.scale.bring_ups):
        if attempt:
            workload.tear_down()
        with clock.section() as section:
            workload.bring_up()
        bring_up_s.append(section.ref_s)
    setup_s = import_s + sum(fixture.stage_s.values()) + inputs_s + statistics.median(bring_up_s)
    _say(
        f"[{name}] setup {setup_s:.3f}s = import {import_s:.3f} + "
        + " + ".join(f"{stage} {value:.3f}" for stage, value in fixture.stage_s.items())
        + f" + inputs {inputs_s:.3f} + bring-up {statistics.median(bring_up_s):.3f}"
    )

    if trace:
        from ledger_layers import traced_run

        try:
            values = traced_run(workload, seconds, environment(seed, pinned_core))
        finally:
            workload.tear_down()
        return _result(spec["per_layer"], values, workload)

    try:
        rounds = workload.measure(seconds)
        probe = workload.probe_orders()
        workload.check()
        description = workload.describe()
    finally:
        workload.tear_down()
    summary = summarise(rounds)
    ratio, _ = plan_cost_ratio(fixture, probe)
    values = {
        "setup_s": setup_s,
        "throughput_qps": summary.throughput_qps,
        "latency_p50_ms": summary.latency_p50_ms,
        "latency_p95_ms": summary.latency_p95_ms,
        "plan_cost_ratio": ratio,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _say(
        f"[{name}] {len(rounds)} rounds, {summary.queries} queries, {summary.samples} latency"
        f" samples over {summary.ref_s:.2f} reference s (host factor"
        f" {clock.median_factor():.2f}); attempted {workload.attempted},"
        f" failed {len(workload.failures)}; {description}"
    )
    for failure in workload.failures[:20]:
        _say(f"[{name}] FAILED: {failure}")
    return _result(spec["end_to_end"], values, workload)
