"""Collect one *set* of ledger runs into a result file for ``compare.py``.

    python3 benchmarks/ledger/collect.py --out benchmarks/results/ledger_a.json

Runs ``run.py`` in a fresh process for every workload of
``BENCHMARK.json`` and ``--runs`` consecutive seeds (untraced), plus one
traced run per workload, and writes every value with the environment
block.  Seeds advance across sets via ``--first-seed`` so that two sets
never share inputs unless asked to.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} printed nothing:\n{done.stderr}")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{' '.join(command)} failed:\n{done.stderr}")
    return {
        "seed": seed,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
    }


def main(argv: "list[str] | None" = None) -> int:
    from ledger_fixture import environment
    from ledger_run import load_spec

    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    from repro.obs import write_snapshot

    payload = {
        "environment": environment(args.first_seed),
        "run_seconds": spec["run_seconds"],
        "runs": {},
        "traced": {},
    }
    for workload in args.workloads:
        payload["runs"][workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            run = run_once(workload, seed, spec["run_seconds"], trace=0)
            payload["runs"][workload].append(run)
            print(workload, seed, json.dumps(run["metrics"]), flush=True)
        payload["traced"][workload] = run_once(
            workload, args.first_seed, spec["run_seconds"], trace=1
        )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_snapshot(out, payload)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
