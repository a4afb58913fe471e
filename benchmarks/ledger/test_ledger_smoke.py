"""Tier-1 smoke test of the latency ledger (collected by ``pytest -x -q``).

All four workloads, untraced and traced, at the ``TINY`` scale on one
shared fixture: the result schema, that the names emitted are exactly
those of ``BENCHMARK.json``, the contract's caps, and that the staged
replay's stages add up to the one call they replay.
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from compare import verdict  # noqa: E402
from ledger_clock import HostClock  # noqa: E402
from ledger_fixture import TINY, build_fixture  # noqa: E402
from ledger_run import load_spec, run_workload  # noqa: E402
from ledger_workloads import RESULTS_DIR, WORKLOADS  # noqa: E402

from repro.obs import read_snapshot  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def fixture():
    return build_fixture(TINY, HostClock())


@pytest.fixture(scope="module")
def spec():
    return load_spec()


def test_benchmark_json_is_within_the_contract(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert spec["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def check_result(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [metric["name"] for metric in metrics]
    for metric in metrics:
        emitted = result["metrics"][metric["name"]]
        assert set(emitted) == {"value", "unit"} and emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_untraced_run_emits_the_end_to_end_metrics(name, fixture, spec):
    result = run_workload(name, fixture, seed=0, seconds=0.2, trace=False)
    check_result(result, spec["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_emits_the_per_layer_metrics(name, fixture, spec):
    result = run_workload(name, fixture, seed=0, seconds=0.3, trace=True)
    check_result(result, spec["per_layer"])
    value = {metric: entry["value"] for metric, entry in result["metrics"].items()}
    assert value["obs.spans_dropped"] == 0 and value["obs.spans_recorded"] > 0
    assert value["core.beam_steps_per_batch"] >= 3 and value["nn.linear.calls"] > 0
    # BENCHMARK.json's own runs land in [0.85, 1.15] (README); one or
    # two tiny batches on a shared CI host only have to be sane.
    assert 0.4 <= value["core.staged_vs_onecall_ratio"] <= 2.5
    snapshot = read_snapshot(RESULTS_DIR / f"ledger_trace_{name}.json")
    ledger = snapshot["ledger"]
    assert ledger["workload"] == name and ledger["per_layer"] == value
    staged = {stage["name"] for stage in ledger["stages"]}
    assert {"staged.batch", "core.drive_beam_states", "staged.cycle", "core.train"} <= staged
    parents = {span["attrs"].get("parent") for span in snapshot["traces"]["spans"]}
    assert {"staged.batch", "staged.cycle"} <= parents


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(base, base, "lower", 0.1) == "same"
    assert verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "better"
    assert verdict(base, [v * 0.95 for v in base], "lower", 0.1) == "same"  # within drift
    assert verdict(base, [v * 0.8 for v in base], "higher", 0.1) == "worse"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert verdict(noisy, [v / 10 for v in noisy], "lower", 0.1) == "better"
