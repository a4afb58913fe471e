"""The latency ledger's one command (see README.md, BENCHMARK.json).

    python3 benchmarks/ledger/run.py --workload serve_unique --seed 0 --seconds 16 --trace 0

Prints a table of every metric with its unit and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of the traced run with ``--trace 1``.  Exits non-zero when any
request, cycle or correctness check failed.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: the program is measured, not
# BLAS-internal threading on a 2-core host.
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from ledger_clock import HostClock, pin_to_one_core

    pinned = pin_to_one_core()
    clock = HostClock()
    with clock.section() as section:
        import ledger_fixture
        from ledger_run import run_workload
        from ledger_workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    fixture = ledger_fixture.build_fixture(ledger_fixture.FULL, clock)
    result = run_workload(
        args.workload, fixture, args.seed, args.seconds, bool(args.trace),
        import_s=section.ref_s, pinned_core=pinned,
    )
    for name, metric in result["metrics"].items():
        print(f"{args.workload:<14}{name:<36}{metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
